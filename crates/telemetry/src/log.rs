//! The `REIN_LOG` stderr event emitter.
//!
//! The effective level is parsed from the environment once and cached in
//! an atomic, so a disabled [`info!`](crate::info!) or
//! [`debug!`](crate::debug!) call site costs a single relaxed load — the
//! format arguments are never evaluated.

#![expect(
    clippy::print_stderr,
    reason = "this module is the telemetry layer's stderr event emitter"
)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Emitter verbosity, ordered so `Info < Debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Nothing is emitted.
    Off = 0,
    /// Run-level events: warnings, phase summaries.
    Info = 1,
    /// Everything, including span open/close events.
    Debug = 2,
}

/// Sentinel meaning "not yet read from the environment".
const UNSET: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(UNSET);

fn parse(value: &str) -> Option<Level> {
    match value.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "none" => Some(Level::Off),
        "info" | "1" => Some(Level::Info),
        "debug" | "2" => Some(Level::Debug),
        _ => None,
    }
}

/// The effective level: `REIN_LOG` if set and valid, else `info`.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Info,
        2 => Level::Debug,
        _ => {
            #[expect(
                clippy::disallowed_methods,
                reason = "REIN_LOG only selects log verbosity in the observer layer; it cannot reach a computed result"
            )]
            let from_env = std::env::var("REIN_LOG");
            let resolved = match &from_env {
                Ok(raw) => parse(raw),
                Err(_) => Some(Level::Info),
            };
            let level = resolved.unwrap_or(Level::Info);
            LEVEL.store(level as u8, Ordering::Relaxed);
            if resolved.is_none() {
                if let Ok(raw) = from_env {
                    emit(
                        Level::Info,
                        &format!("REIN_LOG={raw:?} is not off|info|debug; using info"),
                    );
                }
            }
            level
        }
    }
}

/// Overrides the level, ignoring `REIN_LOG`. For tests and overhead
/// benchmarks.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// True when events at `at` should be emitted.
#[inline]
pub fn enabled(at: Level) -> bool {
    // Fast path: one atomic load once the level is cached.
    let cached = LEVEL.load(Ordering::Relaxed);
    if cached != UNSET {
        return cached >= at as u8;
    }
    level() >= at
}

/// Writes one event line to stderr. Callers should gate on [`enabled`]
/// (the macros do) so formatting is skipped when the level is off.
pub fn emit(at: Level, message: &str) {
    let tag = match at {
        Level::Off => return,
        Level::Info => "info",
        Level::Debug => "debug",
    };
    eprintln!("[rein {tag}] {message}");
}

/// Emits an `info`-level event if `REIN_LOG` allows it.
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Info) {
            $crate::emit($crate::Level::Info, &::std::format!($($arg)*));
        }
    };
}

/// Emits a `debug`-level event if `REIN_LOG` allows it.
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::enabled($crate::Level::Debug) {
            $crate::emit($crate::Level::Debug, &::std::format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Off < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn parse_accepts_aliases() {
        assert_eq!(parse("off"), Some(Level::Off));
        assert_eq!(parse("INFO"), Some(Level::Info));
        assert_eq!(parse(" debug "), Some(Level::Debug));
        assert_eq!(parse("2"), Some(Level::Debug));
        assert_eq!(parse("verbose"), None);
    }
}
