//! The campaign's attack inventory: every shipped `attacks/*.atk`.
//!
//! Sources are embedded at compile time (`scenario::attacks` includes
//! the `.atk` files) so the campaign binary and the conformance tests
//! run from any working directory.

use attain_core::scenario;
use attain_netsim::EvictionPolicy;

/// How an attack description binds to a system model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Compiled against the §VII enterprise scenario and run on the
    /// case-study network (Figure 8/9).
    Enterprise,
    /// A self-contained document carrying its own `system` and
    /// `capabilities` blocks; run on the topology it declares.
    SelfContained,
}

/// A per-cell flow-table bound: one switch runs with a finite table
/// and an overflow policy, applied identically to the attacked run and
/// its differential baseline (the bound is environment, not attack).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableOverride {
    /// The switch whose table is bounded (by builder name).
    pub switch: &'static str,
    /// Maximum resident flow entries.
    pub capacity: usize,
    /// What a full table does with the next install.
    pub policy: EvictionPolicy,
}

/// The overflow family's environment: the branch switch `s4` bounded
/// at eight entries with LRU eviction, small enough that the phantom
/// installs evict the workload's flows within one ping window.
pub const TABLE_OVERFLOW_BOUND: TableOverride = TableOverride {
    switch: "s4",
    capacity: 8,
    policy: EvictionPolicy::EvictLru,
};

/// One campaign attack: a named `.atk` source plus its scope.
#[derive(Debug, Clone, Copy)]
pub struct AttackDef {
    /// The attack's file stem (`attacks/<name>.atk`), used in cell names.
    pub name: &'static str,
    /// The DSL source text.
    pub source: &'static str,
    /// Enterprise-scenario attack or self-contained document.
    pub scope: Scope,
    /// A flow-table bound the cell's environment applies, if any.
    pub table: Option<TableOverride>,
}

/// Every shipped attack, in matrix order: the ten enterprise attacks
/// in their `scenario::attacks::ALL` order, then the self-contained
/// demo document.
pub fn all() -> Vec<AttackDef> {
    let mut v: Vec<AttackDef> = scenario::attacks::ALL
        .iter()
        .map(|&(name, source)| AttackDef {
            name,
            source,
            scope: Scope::Enterprise,
            table: (name == "table_overflow").then_some(TABLE_OVERFLOW_BOUND),
        })
        .collect();
    v.push(AttackDef {
        name: "self_contained_demo",
        source: include_str!("../../../attacks/self_contained_demo.atk"),
        scope: Scope::SelfContained,
        table: None,
    });
    // Chaos cells: the sources are the trivial baseline (so shared
    // baselines stay healthy); `cell::run` intercepts the names and
    // misbehaves only on the attacked half of the pair.
    #[cfg(feature = "test_faults")]
    {
        v.push(AttackDef {
            name: crate::cell::chaos::PANIC_CELL,
            source: scenario::attacks::TRIVIAL_PASS,
            scope: Scope::Enterprise,
            table: None,
        });
        v.push(AttackDef {
            name: crate::cell::chaos::LIVELOCK_CELL,
            source: scenario::attacks::TRIVIAL_PASS,
            scope: Scope::Enterprise,
            table: None,
        });
    }
    v
}

/// Looks up an attack by name.
pub fn by_name(name: &str) -> Option<AttackDef> {
    all().into_iter().find(|a| a.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_covers_every_shipped_atk_file() {
        let names: Vec<_> = all().iter().map(|a| a.name).collect();
        let expected = if cfg!(feature = "test_faults") {
            13
        } else {
            11
        };
        assert_eq!(
            names.len(),
            expected,
            "expected the eleven shipped attacks (plus chaos cells under test_faults)"
        );
        assert_eq!(names[0], "trivial_pass", "baseline attack leads the matrix");
        assert!(names.contains(&"self_contained_demo"));
    }

    #[test]
    fn only_the_overflow_attack_bounds_a_table() {
        for a in all() {
            if a.name == "table_overflow" {
                assert_eq!(a.table, Some(TABLE_OVERFLOW_BOUND));
            } else {
                assert_eq!(a.table, None, "{} must not bound a table", a.name);
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(
            by_name("flow_mod_suppression").unwrap().scope,
            Scope::Enterprise
        );
        assert_eq!(
            by_name("self_contained_demo").unwrap().scope,
            Scope::SelfContained
        );
        assert!(by_name("no_such_attack").is_none());
    }
}
