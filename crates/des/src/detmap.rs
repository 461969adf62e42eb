//! A deterministic-iteration hash map.
//!
//! `std::collections::HashMap` iterates in a per-process random order, which
//! must never reach simulation state or run reports (analyzer rule R1,
//! DESIGN.md §8). Simulation crates normally use `BTreeMap`/`BTreeSet`; when
//! a hot path genuinely wants O(1) point lookups, [`DetHashMap`] is the
//! sanctioned alternative: hash-backed storage whose *only* iteration APIs
//! sort by key first, so iteration order can never depend on hasher seeds
//! or insertion history.
//!
//! The wrapper is deliberately narrow — point access is constant-time, every
//! traversal is `O(n log n)` and allocates. If a structure is traversed more
//! than it is probed, use a B-tree instead.

// The one allowlisted HashMap use in the simulation crates: this module is
// the wrapper rule R1 points violators at (xtask/analyze.allow).
use std::collections::HashMap;
use std::hash::Hash;

/// A hash map whose iteration is always key-sorted.
///
/// ```
/// use rambda_des::DetHashMap;
///
/// let mut m = DetHashMap::new();
/// m.insert(30u64, "c");
/// m.insert(10, "a");
/// m.insert(20, "b");
/// let keys: Vec<u64> = m.iter_sorted().map(|(k, _)| *k).collect();
/// assert_eq!(keys, vec![10, 20, 30]); // never hasher-order
/// ```
#[derive(Debug, Clone, Default)]
pub struct DetHashMap<K, V> {
    inner: HashMap<K, V>,
}

impl<K: Eq + Hash + Ord, V> DetHashMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DetHashMap { inner: HashMap::new() }
    }

    /// Creates an empty map with room for `capacity` entries.
    pub fn with_capacity(capacity: usize) -> Self {
        DetHashMap { inner: HashMap::with_capacity(capacity) }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inserts `value` at `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.inner.insert(key, value)
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.inner.get(key)
    }

    /// Mutable access to the value at `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.inner.get_mut(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.inner.contains_key(key)
    }

    /// Removes and returns the value at `key`, if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.inner.remove(key)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.inner.clear()
    }

    /// Iterates entries in ascending key order (the only iteration order
    /// this container offers).
    pub fn iter_sorted(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut entries: Vec<(&K, &V)> = self.inner.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }

    /// Iterates keys in ascending order.
    pub fn keys_sorted(&self) -> impl Iterator<Item = &K> {
        self.iter_sorted().map(|(k, _)| k)
    }

    /// Consumes the map, yielding entries in ascending key order.
    pub fn into_iter_sorted(self) -> impl Iterator<Item = (K, V)> {
        let mut entries: Vec<(K, V)> = self.inner.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.into_iter()
    }
}

impl<K: Eq + Hash + Ord, V> FromIterator<(K, V)> for DetHashMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        DetHashMap { inner: iter.into_iter().collect() }
    }
}

/// Builds a [`DetHashMap`] from `key => value` pairs.
///
/// ```
/// use rambda_des::det_hash_map;
///
/// let m = det_hash_map! { 2u32 => "b", 1 => "a" };
/// assert_eq!(m.keys_sorted().copied().collect::<Vec<_>>(), vec![1, 2]);
/// ```
#[macro_export]
macro_rules! det_hash_map {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::DetHashMap::from_iter([$(($key, $value)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_point_ops() {
        let mut m = DetHashMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(1u64, "one"), None);
        assert_eq!(m.insert(1, "uno"), Some("one"));
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"uno"));
        assert!(m.contains_key(&2));
        *m.get_mut(&2).unwrap() = "dos";
        assert_eq!(m.remove(&2), Some("dos"));
        assert_eq!(m.len(), 1);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn map_iteration_is_key_sorted() {
        // Enough keys that hasher order and insertion order both disagree
        // with sorted order with overwhelming probability.
        let mut m = DetHashMap::new();
        for k in [77u64, 3, 512, 1, 90, 41, 2, 1000, 13, 8] {
            m.insert(k, k * 10);
        }
        let keys: Vec<u64> = m.keys_sorted().copied().collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(keys, expect);
        let owned: Vec<u64> = m.clone().into_iter_sorted().map(|(k, _)| k).collect();
        assert_eq!(owned, expect);
    }

    #[test]
    fn macro_builds_a_map() {
        let m = det_hash_map! { "b" => 2, "a" => 1 };
        assert_eq!(m.iter_sorted().map(|(k, v)| (*k, *v)).collect::<Vec<_>>(), vec![("a", 1), ("b", 2)]);
        let empty: DetHashMap<u8, u8> = det_hash_map! {};
        assert!(empty.is_empty());
    }
}
