//! Rule registry.
//!
//! Each rule is a pure function from the loaded [`Workspace`] to a list of
//! [`Diagnostic`]s. Rules carry their scope/configuration as data so the
//! fixture tests can re-point them at a corpus instead of the real tree.

mod golden_emission;
mod lock_order;
mod randomness;
mod rng_collision;
mod unordered_iter;
mod wall_clock;

pub use golden_emission::GoldenEmission;
pub use lock_order::LockOrder;
pub use randomness::Randomness;
pub use rng_collision::RngCollision;
pub use unordered_iter::UnorderedIter;
pub use wall_clock::WallClock;

use crate::diag::Diagnostic;
use crate::Workspace;

/// One machine-checked invariant.
pub trait Rule {
    /// Rule id as written in `allow(...)` annotations, e.g. `unordered-iter`.
    fn id(&self) -> &'static str;
    /// Short code used in reports, e.g. `D1`.
    fn code(&self) -> &'static str;
    /// One-line description of the bug class the rule prevents.
    fn description(&self) -> &'static str;
    fn check(&self, ws: &Workspace) -> Vec<Diagnostic>;
}

/// The full default rule set in report order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(UnorderedIter::default()),
        Box::new(WallClock::default()),
        Box::new(Randomness),
        Box::new(LockOrder::default()),
        Box::new(GoldenEmission::default()),
        Box::new(RngCollision),
    ]
}
