//! The one informational stderr sink.
//!
//! Every human-facing side-channel line the pipeline emits — cache
//! summaries, progress ticks, profile reports, obs export confirmations —
//! goes through [`crate::note!`], so a single `--quiet` flag (or
//! `MCSCHED_QUIET=1`) silences them all. Figure tables and CSVs go to
//! stdout and are never routed here; genuine warnings/errors also bypass
//! the sink on purpose.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};

static QUIET: AtomicBool = AtomicBool::new(false);

/// Silences (or re-enables) the informational sink.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

/// Whether the sink is currently silenced.
#[must_use]
fn is_quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// Writes one line to stderr unless the sink is quiet. Public only because
/// the exported [`crate::note!`] macro expands to it in other crates.
#[doc(hidden)]
pub fn note_args(args: fmt::Arguments<'_>) {
    if !is_quiet() {
        eprintln!("{args}");
    }
}

/// `eprintln!`, routed through the quiet-able sink:
///
/// ```
/// mcsched_obs::note!("cell cache: {} cells", 42);
/// ```
#[macro_export]
macro_rules! note {
    ($($arg:tt)*) => {
        $crate::sink::note_args(::std::format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_flag_round_trips() {
        let _lock = crate::test_guard();
        assert!(!is_quiet());
        set_quiet(true);
        assert!(is_quiet());
        crate::note!("suppressed {}", 1); // must not panic while quiet
        set_quiet(false);
        assert!(!is_quiet());
    }
}
