//! One parser for the boolean `TET_*` environment switches.
//!
//! The repository's on/off environment variables (`TET_METRICS`,
//! `TET_CHECK`, `TET_QUIET`) once had three subtly different parsers:
//! some sites treated *any* set value as enabled, some required exactly
//! `=1`, some required "non-empty and not `0`". `TET_METRICS=true`
//! therefore enabled nothing — a trap once several switches are set
//! together on live server requests.
//!
//! [`env_flag`] is the single shared rule, used by every switch:
//!
//! * variable **unset** → the switch's `default`;
//! * set to `0`, `false`, `off`, `no` (any case, surrounding whitespace
//!   ignored) or the empty string → **disabled**;
//! * set to anything else (`1`, `true`, `on`, `yes`, ...) → **enabled**.
//!
//! Callers that cache the answer process-wide (`TET_CHECK` does, via
//! `OnceLock`) keep their caching; only the parse is centralized.

/// Parses one boolean environment switch under the shared rule (see the
/// module docs). `default` is returned when `name` is unset.
///
/// # Examples
///
/// ```
/// // Unset variables fall back to the given default.
/// assert!(tet_obs::env_flag("TET_OBS_DOCTEST_UNSET", true));
/// assert!(!tet_obs::env_flag("TET_OBS_DOCTEST_UNSET", false));
/// ```
pub fn env_flag(name: &str, default: bool) -> bool {
    match std::env::var_os(name) {
        None => default,
        Some(v) => parse_flag_value(&v.to_string_lossy()),
    }
}

/// The value rule of [`env_flag`], on an already-fetched string: `0`,
/// `false`, `off`, `no` (case-insensitive, trimmed) and the empty string
/// disable; everything else enables.
pub fn parse_flag_value(value: &str) -> bool {
    let v = value.trim();
    !(v.is_empty()
        || v.eq_ignore_ascii_case("0")
        || v.eq_ignore_ascii_case("false")
        || v.eq_ignore_ascii_case("off")
        || v.eq_ignore_ascii_case("no"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_matrix() {
        // Disabling spellings — every site must treat these as "off".
        for off in [
            "0", "false", "FALSE", "False", "off", "OFF", "no", "", "  0  ", " false ",
        ] {
            assert!(!parse_flag_value(off), "{off:?} must disable");
        }
        // Enabling spellings — including the historical bare `=1` and
        // arbitrary truthy strings sites used to disagree on.
        for on in ["1", "true", "TRUE", "on", "yes", "2", "enabled", " 1 "] {
            assert!(parse_flag_value(on), "{on:?} must enable");
        }
    }

    #[test]
    fn unset_uses_default() {
        // A name no test environment sets.
        assert!(env_flag("TET_SURELY_UNSET_FLAG_XYZ", true));
        assert!(!env_flag("TET_SURELY_UNSET_FLAG_XYZ", false));
    }

    #[test]
    fn set_values_are_read_through_the_shared_rule() {
        // Process-global environment: use a dedicated name, restore after.
        let name = "TET_ENV_FLAG_UNIT_TEST";
        for (val, want) in [
            ("1", true),
            ("true", true),
            ("anything", true),
            ("0", false),
            ("false", false),
            ("off", false),
            ("", false),
        ] {
            std::env::set_var(name, val);
            assert_eq!(env_flag(name, !want), want, "value {val:?}");
        }
        std::env::remove_var(name);
    }
}
