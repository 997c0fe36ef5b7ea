//! A server-side plan cache.
//!
//! The §6.1 server evaluates the *same* render queries on every request —
//! the article page, the index page, a handful of ad-hoc templates — yet
//! until this cache existed it re-parsed and re-lowered the query text each
//! time, an O(query size) tax per request that dwarfs execution for small
//! pages. The cache maps `(query text, static-context fingerprint)` to a
//! shared [`CompiledPlan`], so a repeated request costs one hash lookup.
//!
//! # Key and invalidation
//!
//! The second key component is a *fingerprint* of everything compilation
//! reads besides the query text: the registered library modules (their URI
//! and source) and the browser-profile flag — see
//! [`static_fingerprint`]. Two servers with different module registries
//! never share an entry, and re-registering a module changes the
//! fingerprint, so a stale plan cannot be returned for a new static
//! context.
//!
//! Invalidation is additionally *epoch-based*: [`PlanCache::invalidate`]
//! bumps the cache epoch and drops every cached plan, covering
//! environment changes the fingerprint cannot see (a swapped corpus, a
//! recovery, a host-hook change). Each entry records the epoch it was
//! compiled in; an entry from an older epoch is never served.
//!
//! # Bounds
//!
//! The cache holds at most `capacity` plans and evicts the least recently
//! used entry on overflow (exact LRU over a monotone use-tick; eviction is
//! O(n) over a deliberately small n). Compile *errors* are never cached:
//! a failing query costs a re-parse each time, but an admission-controlled
//! server already bounds that, and caching errors would pin attacker-chosen
//! garbage in a bounded cache.

use std::collections::HashMap;
use std::rc::Rc;

use xqib_storage::mix64;
use xqib_xdm::XdmResult;

use crate::plan::{lower, CompiledPlan};
use crate::runtime::{compile_with, ModuleRegistry};

/// Hit/miss/eviction counters, read by the server's `/metrics`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile (entry absent, stale epoch, or first
    /// use).
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Epoch bumps (each drops the whole cache).
    pub invalidations: u64,
}

impl PlanCacheStats {
    /// Visits each counter under the name `/metrics` serves it by.
    pub fn visit(&self, f: &mut dyn FnMut(&'static str, u64)) {
        let PlanCacheStats {
            hits,
            misses,
            evictions,
            invalidations,
        } = *self;
        f("plan-cache-hits", hits);
        f("plan-cache-misses", misses);
        f("plan-cache-evictions", evictions);
        f("plan-cache-invalidations", invalidations);
    }
}

struct Entry {
    plan: Rc<CompiledPlan>,
    /// Cache epoch the plan was compiled under.
    epoch: u64,
    /// Monotone use-tick for LRU eviction.
    last_used: u64,
}

/// A bounded LRU cache of compiled plans. Single-threaded, like the rest
/// of the engine: the server owns one and threads `&mut` through.
pub struct PlanCache {
    capacity: usize,
    epoch: u64,
    tick: u64,
    entries: HashMap<(String, u64), Entry>,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// A cache bounded to `capacity` plans (at least one).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            epoch: 0,
            tick: 0,
            entries: HashMap::new(),
            stats: PlanCacheStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }

    /// Drops every cached plan and starts a new epoch. Call when anything
    /// compilation depends on changes out from under the fingerprint.
    pub fn invalidate(&mut self) {
        self.epoch += 1;
        self.entries.clear();
        self.stats.invalidations += 1;
    }

    /// Returns the cached plan for `(src, fingerprint)`, compiling and
    /// inserting via `compile` on a miss. Compile errors pass through
    /// uncached.
    pub fn get_or_compile(
        &mut self,
        src: &str,
        fingerprint: u64,
        compile: impl FnOnce() -> XdmResult<CompiledPlan>,
    ) -> XdmResult<Rc<CompiledPlan>> {
        self.tick += 1;
        let key = (src.to_string(), fingerprint);
        if let Some(entry) = self.entries.get_mut(&key) {
            if entry.epoch == self.epoch {
                entry.last_used = self.tick;
                self.stats.hits += 1;
                return Ok(entry.plan.clone());
            }
            // a pre-invalidation survivor (possible only if callers insert
            // across epochs; kept for defence in depth)
            self.entries.remove(&key);
        }
        self.stats.misses += 1;
        let plan = Rc::new(compile()?);
        if self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        self.entries.insert(
            key,
            Entry {
                plan: plan.clone(),
                epoch: self.epoch,
                last_used: self.tick,
            },
        );
        Ok(plan)
    }

    fn evict_lru(&mut self) {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        if let Some(k) = victim {
            self.entries.remove(&k);
            self.stats.evictions += 1;
        }
    }
}

/// Compiles a main module against `registry` and lowers it to a plan —
/// the `compile` closure servers hand to [`PlanCache::get_or_compile`].
pub fn compile_plan(
    src: &str,
    registry: &ModuleRegistry,
    browser_profile: bool,
) -> XdmResult<CompiledPlan> {
    let q = compile_with(src, registry, browser_profile)?;
    Ok(lower(&q))
}

/// Fingerprint of the compilation environment: the module registry's
/// contents and the browser-profile flag. Mix further inputs (page-script
/// version, corpus generation) in with [`mix`].
pub fn static_fingerprint(registry: &ModuleRegistry, browser_profile: bool) -> u64 {
    mix(registry.fingerprint(), browser_profile as u64)
}

/// Order-sensitive 64-bit hash combiner: `b` spread by the golden-ratio
/// multiplier, folded into `a`, finished by the splitmix64 mixer.
pub fn mix(a: u64, b: u64) -> u64 {
    mix64(a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// FNV-1a over bytes: deterministic across processes (unlike the std
/// hasher), so fingerprints are stable for logs and tests.
pub use xqib_storage::fnv1a as hash_bytes;

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_plan(c: &mut PlanCache, src: &str, fp: u64) -> Rc<CompiledPlan> {
        c.get_or_compile(src, fp, || compile_plan(src, &ModuleRegistry::new(), false))
            .expect("compiles")
    }

    #[test]
    fn repeated_lookup_hits() {
        let mut c = PlanCache::new(4);
        let a = cache_plan(&mut c, "1 + 1", 0);
        let b = cache_plan(&mut c, "1 + 1", 0);
        assert!(Rc::ptr_eq(&a, &b), "hit must return the same plan");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn fingerprint_partitions_entries() {
        let mut c = PlanCache::new(4);
        let a = cache_plan(&mut c, "1 + 1", 1);
        let b = cache_plan(&mut c, "1 + 1", 2);
        assert!(!Rc::ptr_eq(&a, &b), "different static contexts never share");
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let mut c = PlanCache::new(2);
        cache_plan(&mut c, "1", 0);
        cache_plan(&mut c, "2", 0);
        cache_plan(&mut c, "1", 0); // touch 1: 2 becomes LRU
        cache_plan(&mut c, "3", 0); // evicts 2
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
        cache_plan(&mut c, "1", 0);
        assert_eq!(c.stats().hits, 2, "1 must have survived the eviction");
    }

    #[test]
    fn invalidation_drops_everything() {
        let mut c = PlanCache::new(4);
        let a = cache_plan(&mut c, "1 + 1", 0);
        c.invalidate();
        assert!(c.is_empty());
        let b = cache_plan(&mut c, "1 + 1", 0);
        assert!(!Rc::ptr_eq(&a, &b), "post-invalidation lookups recompile");
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let mut c = PlanCache::new(4);
        for _ in 0..2 {
            let r = c.get_or_compile("1 +", 0, || {
                compile_plan("1 +", &ModuleRegistry::new(), false)
            });
            assert!(r.is_err());
        }
        assert!(c.is_empty());
        assert_eq!(c.stats().misses, 2, "every failing lookup recompiles");
    }

    #[test]
    fn registry_fingerprint_tracks_module_changes() {
        let mut r = ModuleRegistry::new();
        let f0 = static_fingerprint(&r, false);
        r.register_source("module namespace m = 'http://x/m'; declare function m:one() { 1 };")
            .unwrap();
        let f1 = static_fingerprint(&r, false);
        assert_ne!(f0, f1, "registering a module must change the fingerprint");
        r.register_source("module namespace m = 'http://x/m'; declare function m:one() { 2 };")
            .unwrap();
        let f2 = static_fingerprint(&r, false);
        assert_ne!(f1, f2, "changing a module's source must change it too");
        assert_ne!(
            static_fingerprint(&r, false),
            static_fingerprint(&r, true),
            "browser profile is part of the static context"
        );
    }
}
