//! Fixture: a rotted annotation (unknown rule id) for A0.

// alm-lint: allow(no-such-rule) — typo'd rule id, must be reported
pub fn seeded() -> u64 {
    42
}
