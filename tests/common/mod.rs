//! Shared helpers for the integration tests.

pub use teamsteal_core::test_support::{with_watchdog, WATCHDOG};
