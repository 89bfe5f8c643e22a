//! Scheduler configuration surface.
//!
//! Like `YarnConfig`, these structs are an *experiment surface*: every
//! field shifts which tenant wins a slot, and therefore how failure
//! amplification spreads across tenants. Both structs follow the same
//! discipline as `YarnConfig`, enforced by the compiler: `validate()`
//! destructures `Self` with no `..`, and [`SchedConfig::scaled_for_tests`]
//! is a full struct literal, so a new field breaks the build at both.

use serde::Serialize;

/// Which scheduling policy arbitrates free slots between tenant queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum SchedPolicyKind {
    /// Global arrival order: the tenant whose head job arrived first gets
    /// every slot until that job drains. One elephant job starves the
    /// cluster — the baseline the other two policies are judged against.
    Fifo,
    /// Per-tenant guaranteed shares (`TenantSpec::guaranteed_share_pct`)
    /// with work-conserving spillover of surplus slots.
    Capacity,
    /// Weighted max-min fairness on held slots: each free slot goes to the
    /// tenant with the smallest `running_slots / weight` ratio.
    Fair,
}

impl SchedPolicyKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            SchedPolicyKind::Fifo => "fifo",
            SchedPolicyKind::Capacity => "capacity",
            SchedPolicyKind::Fair => "fair",
        }
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SchedConfig {
    pub policy: SchedPolicyKind,
    /// Hard admission cap on concurrently running jobs of one tenant.
    pub max_concurrent_jobs_per_tenant: u32,
    /// Periodic dispatch tick (virtual ms): bounds how long free slots sit
    /// idle when no completion/arrival event happens to trigger dispatch.
    pub dispatch_quantum_ms: u64,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            policy: SchedPolicyKind::Fair,
            max_concurrent_jobs_per_tenant: 8,
            dispatch_quantum_ms: 3_000,
        }
    }
}

impl SchedConfig {
    pub fn with_policy(policy: SchedPolicyKind) -> SchedConfig {
        SchedConfig { policy, ..SchedConfig::default() }
    }

    /// Test-scale configuration. Every field is pinned explicitly — no
    /// `..Default::default()` — so a drifting default cannot silently
    /// change what the determinism tests and golden reports measure.
    pub fn scaled_for_tests(policy: SchedPolicyKind) -> SchedConfig {
        SchedConfig { policy, max_concurrent_jobs_per_tenant: 4, dispatch_quantum_ms: 500 }
    }

    /// Every field checked: the destructuring carries no `..`.
    pub fn validate(&self) -> Result<(), String> {
        let Self { policy, max_concurrent_jobs_per_tenant, dispatch_quantum_ms } = *self;
        match policy {
            SchedPolicyKind::Fifo | SchedPolicyKind::Capacity | SchedPolicyKind::Fair => {}
        }
        if max_concurrent_jobs_per_tenant == 0 {
            return Err("max_concurrent_jobs_per_tenant must be >= 1".into());
        }
        if dispatch_quantum_ms == 0 {
            return Err("dispatch_quantum_ms must be >= 1".into());
        }
        Ok(())
    }
}

/// One tenant of the shared cluster.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantSpec {
    pub name: String,
    /// Weight for the fair policy's max-min arbitration (>= 1).
    pub weight: u32,
    /// Guaranteed percentage of cluster slots for the capacity policy.
    /// Shares across tenants must sum to <= 100.
    pub guaranteed_share_pct: u32,
}

impl TenantSpec {
    pub fn new(name: impl Into<String>, weight: u32, guaranteed_share_pct: u32) -> TenantSpec {
        TenantSpec { name: name.into(), weight, guaranteed_share_pct }
    }

    /// Every field checked: the destructuring carries no `..`.
    pub fn validate(&self) -> Result<(), String> {
        let Self { name, weight, guaranteed_share_pct } = self;
        if name.is_empty() {
            return Err("tenant name must be non-empty".into());
        }
        if *weight == 0 {
            return Err(format!("tenant {name} weight must be >= 1"));
        }
        if *guaranteed_share_pct > 100 {
            return Err(format!("tenant {name} guaranteed_share_pct must be <= 100"));
        }
        Ok(())
    }
}

/// Validate a tenant set as a whole: at least one tenant, unique names,
/// capacity shares summing to at most 100%.
pub fn validate_tenants(tenants: &[TenantSpec]) -> Result<(), String> {
    if tenants.is_empty() {
        return Err("at least one tenant is required".into());
    }
    for t in tenants {
        t.validate()?;
    }
    let mut names: Vec<&str> = tenants.iter().map(|t| t.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() != tenants.len() {
        return Err("tenant names must be unique".into());
    }
    let total: u32 = tenants.iter().map(|t| t.guaranteed_share_pct).sum();
    if total > 100 {
        return Err(format!("guaranteed shares sum to {total}% > 100%"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SchedConfig::default().validate(), Ok(()));
        for p in [SchedPolicyKind::Fifo, SchedPolicyKind::Capacity, SchedPolicyKind::Fair] {
            assert_eq!(SchedConfig::scaled_for_tests(p).validate(), Ok(()));
            assert_eq!(SchedConfig::with_policy(p).policy, p);
        }
    }

    #[test]
    fn config_rules_fire() {
        let c = SchedConfig { max_concurrent_jobs_per_tenant: 0, ..SchedConfig::default() };
        assert!(c.validate().is_err());
        let c = SchedConfig { dispatch_quantum_ms: 0, ..SchedConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn tenant_rules_fire() {
        assert!(TenantSpec::new("", 1, 10).validate().is_err());
        assert!(TenantSpec::new("a", 0, 10).validate().is_err());
        assert!(TenantSpec::new("a", 1, 101).validate().is_err());
        assert_eq!(TenantSpec::new("a", 2, 30).validate(), Ok(()));
    }

    #[test]
    fn tenant_set_rules_fire() {
        assert!(validate_tenants(&[]).is_err());
        let dup = vec![TenantSpec::new("a", 1, 10), TenantSpec::new("a", 1, 10)];
        assert!(validate_tenants(&dup).is_err());
        let over = vec![TenantSpec::new("a", 1, 60), TenantSpec::new("b", 1, 60)];
        assert!(validate_tenants(&over).is_err());
        let ok = vec![TenantSpec::new("a", 1, 60), TenantSpec::new("b", 2, 40)];
        assert_eq!(validate_tenants(&ok), Ok(()));
    }
}
