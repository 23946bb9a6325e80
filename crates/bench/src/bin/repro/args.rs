//! Shared strict command-line parsing for the `repro` binary.
//!
//! Every subcommand (`repro`, `repro serve`, `repro submit`, `repro
//! check`) follows the same contract: a `--flag` that needs a value must
//! be followed by one (a following `--other-flag` is a *missing
//! argument*, not a value), malformed values are typed error strings
//! naming the flag, and callers turn any error into the usage message
//! and exit code 2. The helpers here keep that contract in one place so
//! a new flag cannot accidentally ship with lenient parsing.

/// Pulls the value of `flag` out of an argument iterator.
///
/// # Errors
///
/// A missing value — end of arguments or a following `--flag` — is an
/// error naming the flag and the expected `what` (e.g. `"a directory"`).
pub(crate) fn flag_value<'a>(
    it: &mut std::slice::Iter<'a, String>,
    flag: &str,
    what: &str,
) -> Result<&'a str, String> {
    match it.next() {
        Some(value) if !value.starts_with("--") => Ok(value),
        _ => Err(format!("{flag} requires {what} argument")),
    }
}

/// Parses an unsigned integer flag value.
///
/// # Errors
///
/// Names the flag and the offending text.
pub(crate) fn parse_u64(flag: &str, what: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("{flag}: {what} must be an unsigned integer, got {value:?}"))
}

/// Parses an unsigned integer flag value, rejecting zero.
///
/// # Errors
///
/// Names the flag for both the non-numeric and the zero case.
pub(crate) fn parse_nonzero_u64(flag: &str, what: &str, value: &str) -> Result<u64, String> {
    match parse_u64(flag, what, value)? {
        0 => Err(format!("{flag}: {what} must be nonzero")),
        n => Ok(n),
    }
}

/// Parses a nonzero `usize` flag value (worker counts, capacities).
///
/// # Errors
///
/// Same contract as [`parse_nonzero_u64`].
pub(crate) fn parse_nonzero_usize(flag: &str, what: &str, value: &str) -> Result<usize, String> {
    usize::try_from(parse_nonzero_u64(flag, what, value)?)
        .map_err(|_| format!("{flag}: {what} out of range, got {value:?}"))
}

/// Parses a finite, strictly positive float flag value.
///
/// # Errors
///
/// Rejects non-numeric, non-finite (`inf`, `nan`), zero, and negative
/// values, naming the flag.
pub(crate) fn parse_positive_f64(flag: &str, what: &str, value: &str) -> Result<f64, String> {
    let parsed: f64 = value
        .parse()
        .map_err(|_| format!("{flag}: {what} must be a number, got {value:?}"))?;
    if !parsed.is_finite() || parsed <= 0.0 {
        return Err(format!(
            "{flag}: {what} must be finite and positive, got {value}"
        ));
    }
    Ok(parsed)
}

/// Parses a `HOST:PORT` listen/connect address. Only shape is validated
/// here (`host:port` with a numeric port); resolution stays with the
/// socket call so names like `localhost` keep working.
///
/// # Errors
///
/// Names the flag and the malformed address.
pub(crate) fn parse_socket_addr(flag: &str, value: &str) -> Result<String, String> {
    let Some((host, port)) = value.rsplit_once(':') else {
        return Err(format!("{flag}: address must be HOST:PORT, got {value:?}"));
    };
    if host.is_empty() {
        return Err(format!("{flag}: address must name a host, got {value:?}"));
    }
    if port.parse::<u16>().is_err() {
        return Err(format!("{flag}: port must be 0-65535, got {port:?}"));
    }
    Ok(value.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flag_value_accepts_values_and_rejects_flags_and_eof() {
        let args = argv(&["out", "--measure"]);
        let mut it = args.iter();
        assert_eq!(flag_value(&mut it, "--artifacts", "a directory"), Ok("out"));
        let err = flag_value(&mut it, "--artifacts", "a directory").unwrap_err();
        assert!(err.contains("--artifacts requires a directory"), "{err}");
        let empty = argv(&[]);
        assert!(flag_value(&mut empty.iter(), "--workers", "a count").is_err());
    }

    #[test]
    fn u64_parsers_name_the_flag_in_every_error() {
        assert_eq!(parse_u64("--faults", "seed", "42"), Ok(42));
        let err = parse_u64("--faults", "seed", "many").unwrap_err();
        assert!(err.contains("--faults"), "{err}");
        assert!(err.contains("unsigned integer"), "{err}");
        let err = parse_nonzero_u64("--workers", "count", "0").unwrap_err();
        assert!(err.contains("--workers"), "{err}");
        assert!(err.contains("nonzero"), "{err}");
        assert_eq!(parse_nonzero_usize("--workers", "count", "4"), Ok(4));
        assert!(parse_nonzero_usize("--workers", "count", "-1").is_err());
    }

    #[test]
    fn positive_f64_rejects_zero_negative_and_non_finite() {
        assert_eq!(parse_positive_f64("--faults", "rate", "1e-6"), Ok(1e-6));
        for bad in ["0", "0.0", "-1e-6", "inf", "nan", "xyz"] {
            let err = parse_positive_f64("--faults", "rate", bad).unwrap_err();
            assert!(err.contains("--faults"), "{bad}: {err}");
        }
    }

    #[test]
    fn socket_addrs_validate_shape_not_resolution() {
        assert_eq!(
            parse_socket_addr("--listen", "127.0.0.1:7070"),
            Ok("127.0.0.1:7070".to_string())
        );
        assert_eq!(
            parse_socket_addr("--connect", "localhost:0"),
            Ok("localhost:0".to_string())
        );
        for bad in ["7070", "host:", "host:notaport", ":7070", "host:70000"] {
            let err = parse_socket_addr("--listen", bad).unwrap_err();
            assert!(err.contains("--listen"), "{bad}: {err}");
        }
    }
}
