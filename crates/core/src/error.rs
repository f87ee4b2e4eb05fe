//! Scheduling errors.

use std::error::Error;
use std::fmt;

/// Error returned when a loop cannot be scheduled.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ScheduleError {
    /// The scheduler exhausted its II budget without finding a valid
    /// schedule (e.g. the loop needs more registers than the architecture
    /// provides and spilling is disabled, as happens to the non-iterative
    /// baseline on register-starved configurations).
    NotConverged {
        /// Loop name.
        loop_name: String,
        /// Highest II the search attempted or proved infeasible (MII − 1
        /// when the climb's floor lies above the II cap).
        last_ii: u32,
    },
    /// The loop body is empty.
    EmptyLoop {
        /// Loop name.
        loop_name: String,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::NotConverged { loop_name, last_ii } => write!(
                f,
                "loop {loop_name:?} did not converge to a valid schedule (last II tried: {last_ii})"
            ),
            ScheduleError::EmptyLoop { loop_name } => {
                write!(f, "loop {loop_name:?} has an empty body")
            }
        }
    }
}

impl Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_loop_name() {
        let e = ScheduleError::NotConverged {
            loop_name: "big".into(),
            last_ii: 512,
        };
        assert!(e.to_string().contains("big"));
        assert!(e.to_string().contains("512"));
        let e = ScheduleError::EmptyLoop {
            loop_name: "none".into(),
        };
        assert!(e.to_string().contains("none"));
    }
}
