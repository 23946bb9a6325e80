//! The experiment catalogue: the one ordered table of what the
//! reproduction can produce.
//!
//! `repro` validates its targets against [`CATALOGUE`] and prints the
//! selected rows in table order; the experiment service resolves its
//! parameterless request kinds through [`find`]. A row is a name plus a
//! builder over a [`Context`]; the built [`Experiment`] renders its text
//! and, where it has one, its JSON document on demand.

use std::cell::OnceCell;

use mempool_arch::SpmCapacity;
use mempool_kernels::matmul::PhaseModel;
use mempool_obs::Json;
use mempool_phys::{viz, AreaReport, Flow, GroupImplementation, TileImplementation};

use super::{
    ablations, Claims, ClusterLevel, Evaluation, Fig6, Fig7, Fig8, Fig9, Resilience, Table1, Table2,
};
use crate::design::DesignPoint;
use crate::dse::DesignSpace;

/// What a row's builder sees: the workload model, and the eight
/// implemented design points built on first use and shared by every row
/// that needs them.
#[derive(Debug)]
pub struct Context {
    model: PhaseModel,
    evaluation: OnceCell<Evaluation>,
}

impl Context {
    /// A context over `model`; nothing is implemented yet.
    pub fn new(model: PhaseModel) -> Self {
        Context {
            model,
            evaluation: OnceCell::new(),
        }
    }

    /// The workload model.
    pub(crate) fn model(&self) -> PhaseModel {
        self.model
    }

    /// All eight design points under the model (implemented once).
    pub(crate) fn evaluation(&self) -> &Evaluation {
        self.evaluation
            .get_or_init(|| Evaluation::with_model(self.model))
    }
}

/// A constructed experiment.
pub trait Experiment {
    /// The text table `repro` prints.
    fn to_text(&self) -> String;

    /// The JSON document `repro --artifacts` writes and the experiment
    /// service serves; `None` for the text-only experiments.
    fn to_json(&self) -> Option<Json> {
        None
    }
}

macro_rules! documented {
    ($($experiment:ty),*) => {$(
        impl Experiment for $experiment {
            fn to_text(&self) -> String {
                <$experiment>::to_text(self)
            }

            fn to_json(&self) -> Option<Json> {
                Some(<$experiment>::to_json(self))
            }
        }
    )*};
}
documented!(Table1, Table2, Fig6, Fig7, Fig8, Fig9, Resilience);

/// A text-only experiment is its text, rendered when built.
impl Experiment for String {
    fn to_text(&self) -> String {
        self.clone()
    }
}

/// One row of the catalogue.
pub struct Entry {
    /// The `repro` target name; for rows with JSON also the artifact stem
    /// and the service's request kind.
    pub name: &'static str,
    /// Constructs the experiment.
    pub build: fn(&Context) -> Box<dyn Experiment>,
}

/// Every experiment, in the order `repro all` prints them.
pub static CATALOGUE: [Entry; 12] = [
    Entry {
        name: "table1",
        build: |_| Box::new(Table1::generate()),
    },
    Entry {
        name: "table2",
        build: |ctx| Box::new(Table2::from_evaluation(ctx.evaluation())),
    },
    Entry {
        name: "fig6",
        build: |ctx| Box::new(Fig6::with_model(ctx.model())),
    },
    Entry {
        name: "ablations",
        build: |_| Box::new(ablations::full_report()),
    },
    Entry {
        name: "cluster",
        build: |_| Box::new(ClusterLevel::generate().to_text()),
    },
    Entry {
        name: "layout",
        build: |_| Box::new(layout_text()),
    },
    Entry {
        name: "fig7",
        build: |ctx| Box::new(Fig7::from_evaluation(ctx.evaluation())),
    },
    Entry {
        name: "fig8",
        build: |ctx| Box::new(Fig8::from_evaluation(ctx.evaluation())),
    },
    Entry {
        name: "fig9",
        build: |ctx| Box::new(Fig9::from_evaluation(ctx.evaluation())),
    },
    Entry {
        name: "claims",
        build: |ctx| Box::new(Claims::from_evaluation(ctx.evaluation()).to_text()),
    },
    Entry {
        name: "dse",
        build: |ctx| Box::new(DesignSpace::explore(ctx.evaluation()).to_text()),
    },
    Entry {
        name: "area",
        build: |_| Box::new(area_text()),
    },
];

/// The row called `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    CATALOGUE.iter().find(|entry| entry.name == name)
}

/// Figures 3-5: the memory-die floorplans, the density map of the 3D
/// 4 MiB group, and the 8 MiB groups to scale.
fn layout_text() -> String {
    let mut parts: Vec<String> = [SpmCapacity::MiB1, SpmCapacity::MiB4, SpmCapacity::MiB8]
        .into_iter()
        .map(|capacity| {
            let tile = TileImplementation::implement(capacity, Flow::ThreeD);
            viz::memory_die_floorplan(&tile, 48)
        })
        .collect();
    let group = GroupImplementation::implement(SpmCapacity::MiB4, Flow::ThreeD);
    parts.push(viz::group_density_map(&group, 72));
    let g2d = GroupImplementation::implement(SpmCapacity::MiB8, Flow::TwoD);
    let g3d = GroupImplementation::implement(SpmCapacity::MiB8, Flow::ThreeD);
    parts.push(viz::group_floorplan(&g2d, &g3d));
    parts.join("\n")
}

/// The area breakdown of all eight groups, 2D first.
fn area_text() -> String {
    let reports: Vec<String> = DesignPoint::all()
        .map(|point| AreaReport::from_group(&point.implement_group()).to_string())
        .collect();
    reports.join("\n")
}
