//! Rule registry.
//!
//! Each rule is a pure function from the loaded [`Workspace`] to a list of
//! [`Diagnostic`]s. Rules carry their scope/configuration as data so the
//! fixture tests can re-point them at a corpus instead of the real tree.

mod golden_emission;
mod lock_order;
mod rng_collision;

pub use golden_emission::GoldenEmission;
pub use lock_order::LockOrder;
pub use rng_collision::RngCollision;

use crate::diag::Diagnostic;
use crate::Workspace;

/// One machine-checked invariant.
pub trait Rule {
    /// Rule id as written in `allow(...)` annotations, e.g. `lock-order`.
    fn id(&self) -> &'static str;
    /// Short code used in reports, e.g. `L1`.
    fn code(&self) -> &'static str;
    /// One-line description of the bug class the rule prevents.
    fn description(&self) -> &'static str;
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic>;
}

/// The full default rule set in report order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![Box::new(LockOrder::default()), Box::new(GoldenEmission::default()), Box::new(RngCollision)]
}
