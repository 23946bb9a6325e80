//! The fault report: what was injected and what the resilience machinery
//! did about it.

use mempool_obs::{Deferred, Json, JsonError};

/// One spare-bank substitution performed by the remap policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemappedBank {
    /// Tile holding the faulted bank.
    pub tile: u32,
    /// The faulted (logical) bank.
    pub from_bank: u32,
    /// The spare bank now backing it.
    pub to_bank: u32,
}

impl RemappedBank {
    /// The flight-ring event of this substitution: category and a message
    /// worded only when the ring is read.
    pub fn flight_event(self) -> (&'static str, Deferred) {
        let message = Deferred {
            render: |[from, tile, to, _]| {
                format!("stuck bank {from} on tile {tile} remapped to spare {to}")
            },
            args: [self.from_bank, self.tile, self.to_bank, 0],
        };
        ("fault", message)
    }
}

/// Summary of a fault-injected run, exported as an artifact by `repro`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Seed of the fault plan.
    pub seed: u64,
    /// Injected degraded (retry-path) F2F links.
    pub links_degraded: u64,
    /// Injected stuck banks.
    pub stuck_banks: u64,
    /// Injected transient bit flips.
    pub transient_flips: u64,
    /// Spare-bank substitutions the storage holds, in the order made.
    pub remapped: Vec<RemappedBank>,
    /// Accesses that went through a degraded link's retry path.
    pub retried_accesses: u64,
    /// Extra cycles spent in retries (summed over all cores).
    pub retry_cycles: u64,
    /// Single-bit errors corrected (and scrubbed) by the ECC model.
    pub ecc_corrected: u64,
    /// Flipped words never read before the run ended (errors still
    /// latent in storage).
    pub ecc_pending: u64,
}

impl FaultReport {
    /// Total injected fault events.
    pub fn total_injected(&self) -> u64 {
        self.links_degraded + self.stuck_banks + self.transient_flips
    }

    /// Serializes the report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Int(self.seed as i64)),
            (
                "injected",
                Json::obj([
                    ("links_degraded", Json::Int(self.links_degraded as i64)),
                    ("stuck_banks", Json::Int(self.stuck_banks as i64)),
                    ("transient_flips", Json::Int(self.transient_flips as i64)),
                    ("total", Json::Int(self.total_injected() as i64)),
                ]),
            ),
            (
                "remapped_banks",
                Json::Arr(
                    self.remapped
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("tile", Json::Int(r.tile as i64)),
                                ("from_bank", Json::Int(r.from_bank as i64)),
                                ("to_bank", Json::Int(r.to_bank as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("retried_accesses", Json::Int(self.retried_accesses as i64)),
            ("retry_cycles", Json::Int(self.retry_cycles as i64)),
            ("ecc_corrected", Json::Int(self.ecc_corrected as i64)),
            ("ecc_pending", Json::Int(self.ecc_pending as i64)),
        ])
    }

    /// Rebuilds a report from its [`Self::to_json`] document (used by
    /// checkpoint restore).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the first missing or mistyped field.
    pub fn from_json(doc: &Json) -> Result<Self, JsonError> {
        let injected = doc.field("injected")?;
        let remapped = doc
            .arr_field("remapped_banks")?
            .iter()
            .map(|entry| {
                Ok(RemappedBank {
                    tile: entry.u32_field("tile")?,
                    from_bank: entry.u32_field("from_bank")?,
                    to_bank: entry.u32_field("to_bank")?,
                })
            })
            .collect::<Result<Vec<_>, JsonError>>()?;
        // `to_json` writes the seed's bits as an `i64`, so a seed of 2^63
        // or more reads negative: take the bits back the same way.
        let seed = doc.field("seed")?.as_int();
        let seed = seed.ok_or_else(|| JsonError::shape("seed must be an integer"))?;
        Ok(FaultReport {
            seed: seed as u64,
            links_degraded: injected.u64_field("links_degraded")?,
            stuck_banks: injected.u64_field("stuck_banks")?,
            transient_flips: injected.u64_field("transient_flips")?,
            remapped,
            retried_accesses: doc.u64_field("retried_accesses")?,
            retry_cycles: doc.u64_field("retry_cycles")?,
            ecc_corrected: doc.u64_field("ecc_corrected")?,
            ecc_pending: doc.u64_field("ecc_pending")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_all_counters() {
        let report = FaultReport {
            seed: 42,
            links_degraded: 2,
            stuck_banks: 1,
            transient_flips: 3,
            remapped: vec![RemappedBank {
                tile: 0,
                from_bank: 5,
                to_bank: 16,
            }],
            retried_accesses: 10,
            retry_cycles: 40,
            ecc_corrected: 1,
            ecc_pending: 2,
        };
        assert_eq!(report.total_injected(), 6);
        let json = report.to_json();
        assert_eq!(json.get("seed").unwrap().as_int(), Some(42));
        assert_eq!(
            json.get("injected").unwrap().get("total").unwrap().as_int(),
            Some(6)
        );
        assert_eq!(
            json.get("remapped_banks").unwrap().as_arr().unwrap().len(),
            1
        );
        // Every seed round-trips, those that read negative included.
        for seed in [42, 1 << 63, u64::MAX] {
            let report = FaultReport {
                seed,
                ..report.clone()
            };
            assert_eq!(FaultReport::from_json(&report.to_json()).unwrap(), report);
        }
    }

    #[test]
    fn json_round_trips_through_from_json() {
        let report = FaultReport {
            seed: 7,
            links_degraded: 1,
            transient_flips: 2,
            remapped: vec![RemappedBank {
                tile: 3,
                from_bank: 1,
                to_bank: 16,
            }],
            ecc_corrected: 9,
            ..Default::default()
        };
        let doc = Json::parse(&report.to_json().to_pretty()).unwrap();
        assert_eq!(FaultReport::from_json(&doc).unwrap(), report);
        assert!(FaultReport::from_json(&Json::obj([])).is_err());
    }
}
