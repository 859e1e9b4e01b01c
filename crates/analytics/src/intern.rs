//! String and pair-key interning for the detector hot path.
//!
//! The detectors and the pair aggregator key their state by location pairs
//! ("Auckland→Los Angeles", "AS64010→AS64020"). Formatting that key with
//! `format!` and probing a `HashMap<String, _>` per measurement is exactly
//! the per-record allocation the fast path must not pay. An [`Interner`]
//! maps each distinct atom to a dense `u32` once; a [`PairInterner`] maps
//! `(src, dst)` atom pairs to dense ids and formats the human-readable pair
//! name a single time, when the pair is first seen. After warm-up the hot
//! loop does two small hash probes on integer keys and zero allocations.

use std::collections::HashMap;

/// Interns strings to dense `u32` ids (0, 1, 2, …) in first-seen order.
#[derive(Debug, Default)]
pub struct Interner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// The id for `name`, allocating the next dense id (and the one owned
    /// copy of the string) on first sight.
    #[allow(clippy::disallowed_methods)] // sanctioned: the interner owns the one copy of each name
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }

    /// The id for `name` if it has been interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The string for an id interned earlier.
    ///
    /// # Panics
    /// If `id` was never returned by `Interner::intern`.
    pub fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// Number of distinct atoms interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Interns `(src, dst)` atom pairs to dense ids, formatting the
/// "src→dst" display name once per distinct pair.
#[derive(Debug, Default)]
pub struct PairInterner {
    atoms: Interner,
    /// `(src_atom << 32) | dst_atom` → dense pair id.
    pairs: HashMap<u64, u32>,
    names: Vec<String>,
}

impl PairInterner {
    /// Create an empty pair interner.
    pub fn new() -> PairInterner {
        PairInterner::default()
    }

    /// Intern one side of a pair.
    pub fn atom(&mut self, name: &str) -> u32 {
        self.atoms.intern(name)
    }

    /// The dense id for the `(src, dst)` atom pair, formatting its
    /// "src→dst" name on first sight. Direction matters: `(a, b)` and
    /// `(b, a)` are distinct pairs.
    pub fn pair(&mut self, src: u32, dst: u32) -> u32 {
        let key = (u64::from(src) << 32) | u64::from(dst);
        if let Some(&id) = self.pairs.get(&key) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names
            .push(format!("{}→{}", self.atoms.name(src), self.atoms.name(dst)));
        self.pairs.insert(key, id);
        id
    }

    /// The "src→dst" display name of a pair id.
    ///
    /// # Panics
    /// If `pair_id` was never returned by [`PairInterner::pair`].
    pub fn name(&self, pair_id: u32) -> &str {
        &self.names[pair_id as usize]
    }

    /// Number of distinct pairs.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no pair has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_of(p: &mut PairInterner, src: &str, dst: &str) -> u32 {
        let (s, d) = (p.atom(src), p.atom(dst));
        p.pair(s, d)
    }

    #[test]
    fn interner_is_dense_and_stable() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        let a = i.intern("Auckland");
        let b = i.intern("Los Angeles");
        assert_eq!((a, b), (0, 1));
        assert_eq!(i.intern("Auckland"), a, "repeat returns the same id");
        assert_eq!(i.name(a), "Auckland");
        assert_eq!(i.get("Los Angeles"), Some(b));
        assert_eq!(i.get("Sydney"), None);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn pair_interner_formats_name_once_and_keeps_direction() {
        let mut p = PairInterner::new();
        let fwd = pair_of(&mut p, "Auckland", "Los Angeles");
        let rev = pair_of(&mut p, "Los Angeles", "Auckland");
        assert_ne!(fwd, rev, "direction matters");
        assert_eq!(pair_of(&mut p, "Auckland", "Los Angeles"), fwd);
        assert_eq!(p.name(fwd), "Auckland→Los Angeles");
        assert_eq!(p.name(rev), "Los Angeles→Auckland");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn pair_ids_are_dense_from_zero() {
        let mut p = PairInterner::new();
        let ids: Vec<u32> = (0..10)
            .map(|i| pair_of(&mut p, &format!("a{i}"), "hub"))
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<u32>>());
    }
}
