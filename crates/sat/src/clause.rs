//! Clause storage: one flat `u32` arena addressed by [`ClauseRef`] offsets.
//!
//! Every clause lives inline in a single `Vec<u32>`, MiniSat style:
//!
//! ```text
//! r      len                          number of literals (≥ 2)
//! r+1    learnt | deleted<<1 | lbd<<2 flags word
//! r+2..  lits[0..len]                 raw literal codes
//! ..     activity (lo, hi)            f64 bits, learnt clauses only
//! ```
//!
//! A [`ClauseRef`] is the word offset `r` of the clause's header, so a
//! watch visit reaches the literals with one index and no pointer chase.
//! Freed clauses keep their words (marked deleted) until the dead words
//! pass a fixed fraction of the arena; [`ClauseDb::compact`] then slides
//! the live clauses down in order and returns a [`Relocation`] that maps
//! old refs to new ones. Learnt clauses are also listed in allocation
//! order, so database reduction and activity rescaling never walk the
//! problem clauses.

use crate::types::Lit;

/// A handle to a clause in the [`ClauseDb`]: its word offset in the arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ClauseRef(u32);

impl ClauseRef {
    /// A ref that names no clause (the arena never reaches this offset),
    /// used by the solver to tag lazily explained reasons.
    pub(crate) const SENTINEL: ClauseRef = ClauseRef(u32::MAX);

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Words before the literals: the length and the flags word.
const HEADER: usize = 2;
/// Words after the literals of a learnt clause: its `f64` activity.
const ACTIVITY: usize = 2;
const LEARNT: u32 = 1;
const DELETED: u32 = 2;
const LBD_SHIFT: u32 = 2;
/// Compact once dead words exceed `1 / COMPACT_DIVISOR` of the arena.
const COMPACT_DIVISOR: usize = 5;

/// The clause arena plus the allocation-ordered list of live learnts.
#[derive(Debug, Default)]
pub(crate) struct ClauseDb {
    arena: Vec<u32>,
    /// Live learnt clauses, in allocation order.
    learnts: Vec<ClauseRef>,
    /// Words held by deleted clauses.
    wasted: usize,
    /// Number of live problem (original) clauses.
    num_original: usize,
    /// Number of compactions run (observed by tests).
    #[cfg(test)]
    pub compactions: usize,
}

/// Old-to-new [`ClauseRef`] map produced by [`ClauseDb::compact`]: the
/// old arena with each live clause's flags word overwritten by its new
/// offset. Only refs to clauses that were live at compaction map.
pub(crate) struct Relocation(Vec<u32>);

impl Relocation {
    #[inline]
    pub fn get(&self, old: ClauseRef) -> ClauseRef {
        ClauseRef(self.0[old.index() + 1])
    }
}

impl ClauseDb {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses are not stored");
        let cref = u32::try_from(self.arena.len())
            .ok()
            .filter(|&r| r != ClauseRef::SENTINEL.0)
            .map(ClauseRef)
            .expect("clause arena exceeds 2^32 words");
        let len = u32::try_from(lits.len()).expect("clause length fits in u32");
        self.arena.push(len);
        // Clamp so a (practically impossible) huge LBD cannot spill into
        // the flag bits; the order of realistic LBDs is unchanged.
        let lbd = lbd.min(u32::MAX >> LBD_SHIFT);
        self.arena.push(u32::from(learnt) | lbd << LBD_SHIFT);
        self.arena.extend(lits.iter().map(|l| l.0));
        if learnt {
            self.arena.extend([0, 0]); // activity 0.0
            self.learnts.push(cref);
        } else {
            self.num_original += 1;
        }
        cref
    }

    /// Allocates a clause the solver derived and keeps unwatched (an
    /// order transitivity explanation): stored like a problem clause,
    /// relocated by [`ClauseDb::compact`], never freed, but not counted
    /// in [`ClauseDb::num_original`].
    pub fn alloc_derived(&mut self, lits: &[Lit]) -> ClauseRef {
        let cref = self.alloc(lits, false, 0);
        self.num_original -= 1;
        cref
    }

    /// Deletes the given learnt clauses. Their words stay in the arena
    /// (marked deleted) until the next [`ClauseDb::compact`].
    pub fn free_learnts(&mut self, doomed: &[ClauseRef]) {
        for &cref in doomed {
            debug_assert!(self.is_learnt(cref) && !self.is_deleted(cref));
            self.arena[cref.index() + 1] |= DELETED;
            self.wasted += self.size(cref);
        }
        let arena = &self.arena;
        self.learnts.retain(|c| arena[c.index() + 1] & DELETED == 0);
    }

    /// Number of live problem clauses.
    pub fn num_original(&self) -> usize {
        self.num_original
    }

    /// Number of live learnt clauses.
    pub fn num_learnt(&self) -> usize {
        self.learnts.len()
    }

    /// Live learnt clauses in allocation order.
    pub fn learnts(&self) -> &[ClauseRef] {
        &self.learnts
    }

    /// Words the clause occupies, header and activity included.
    fn size(&self, cref: ClauseRef) -> usize {
        let learnt = self.is_learnt(cref);
        HEADER + self.len(cref) + if learnt { ACTIVITY } else { 0 }
    }

    #[inline]
    pub fn len(&self, cref: ClauseRef) -> usize {
        self.arena[cref.index()] as usize
    }

    #[inline]
    pub fn lit(&self, cref: ClauseRef, k: usize) -> Lit {
        debug_assert!(k < self.len(cref));
        Lit(self.arena[cref.index() + HEADER + k])
    }

    /// The clause's literals.
    pub fn lits(&self, cref: ClauseRef) -> impl Iterator<Item = Lit> + '_ {
        let start = cref.index() + HEADER;
        self.arena[start..start + self.len(cref)]
            .iter()
            .map(|&w| Lit(w))
    }

    /// The clause's literal words, for in-place reordering.
    #[inline]
    pub fn lits_mut(&mut self, cref: ClauseRef) -> &mut [u32] {
        let start = cref.index() + HEADER;
        let len = self.len(cref);
        &mut self.arena[start..start + len]
    }

    #[inline]
    pub fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.arena[cref.index() + 1] & LEARNT != 0
    }

    #[inline]
    pub fn is_deleted(&self, cref: ClauseRef) -> bool {
        self.arena[cref.index() + 1] & DELETED != 0
    }

    #[inline]
    pub fn lbd(&self, cref: ClauseRef) -> u32 {
        self.arena[cref.index() + 1] >> LBD_SHIFT
    }

    fn activity_at(&self, cref: ClauseRef) -> usize {
        debug_assert!(self.is_learnt(cref));
        cref.index() + HEADER + self.len(cref)
    }

    #[inline]
    pub fn activity(&self, cref: ClauseRef) -> f64 {
        let at = self.activity_at(cref);
        f64::from_bits(u64::from(self.arena[at]) | u64::from(self.arena[at + 1]) << 32)
    }

    #[inline]
    pub fn set_activity(&mut self, cref: ClauseRef, activity: f64) {
        let at = self.activity_at(cref);
        let bits = activity.to_bits();
        self.arena[at] = bits as u32;
        self.arena[at + 1] = (bits >> 32) as u32;
    }

    /// Multiplies every live learnt clause's activity by `factor`.
    pub fn rescale_activities(&mut self, factor: f64) {
        for i in 0..self.learnts.len() {
            let cref = self.learnts[i];
            let a = self.activity(cref);
            self.set_activity(cref, a * factor);
        }
    }

    /// `true` once deleted clauses hold more than the fixed fraction of
    /// the arena.
    pub fn needs_compaction(&self) -> bool {
        self.wasted * COMPACT_DIVISOR > self.arena.len()
    }

    /// Moves every live clause, in arena order, into a fresh arena with
    /// no dead words. The caller must rewrite every ref it holds through
    /// the returned [`Relocation`].
    pub fn compact(&mut self) -> Relocation {
        let mut fresh = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut r = 0;
        while r < self.arena.len() {
            let cref = ClauseRef(r as u32);
            let size = self.size(cref);
            if !self.is_deleted(cref) {
                let new = u32::try_from(fresh.len()).expect("compaction only shrinks the arena");
                fresh.extend_from_slice(&self.arena[r..r + size]);
                self.arena[r + 1] = new;
            }
            r += size;
        }
        let moved = Relocation(std::mem::replace(&mut self.arena, fresh));
        for c in &mut self.learnts {
            *c = moved.get(*c);
        }
        self.wasted = 0;
        #[cfg(test)]
        {
            self.compactions += 1;
        }
        moved
    }

    /// Refs of every live clause in arena order (consistency checks).
    #[cfg(test)]
    pub fn live_refs(&self) -> Vec<ClauseRef> {
        let mut out = Vec::new();
        let mut r = 0;
        while r < self.arena.len() {
            let cref = ClauseRef(r as u32);
            if !self.is_deleted(cref) {
                out.push(cref);
            }
            r += self.size(cref);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(n: &[i64]) -> Vec<Lit> {
        n.iter().map(|&x| Lit::from_dimacs(x)).collect()
    }

    #[test]
    fn layout_round_trips_every_field() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false, 0);
        let b = db.alloc(&lits(&[1, -2, 3]), true, 7);
        assert_eq!(db.num_original(), 1);
        assert_eq!(db.num_learnt(), 1);
        assert_eq!(db.lits(a).collect::<Vec<_>>(), lits(&[1, 2]));
        assert_eq!(db.lits(b).collect::<Vec<_>>(), lits(&[1, -2, 3]));
        assert!(!db.is_learnt(a) && db.is_learnt(b));
        assert_eq!(db.lbd(b), 7);
        assert_eq!(db.activity(b), 0.0);
        db.set_activity(b, 1.5e-300);
        assert_eq!(db.activity(b), 1.5e-300);
        db.lits_mut(b).swap(0, 2);
        assert_eq!(db.lit(b, 0), Lit::from_dimacs(3));
        assert_eq!(db.learnts(), &[b]);
    }

    #[test]
    fn alloc_free_reuse() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false, 0);
        let b = db.alloc(&lits(&[1, -2, 3]), true, 2);
        db.free_learnts(&[b]);
        assert_eq!((db.num_original(), db.num_learnt()), (1, 0));
        let moved = db.compact();
        assert_eq!(moved.get(a), a, "nothing before `a` was freed");
        let c = db.alloc(&lits(&[4, 5]), true, 1);
        assert_eq!(c, b, "compaction hands the freed words to the next clause");
        assert_eq!(db.lits(c).collect::<Vec<_>>(), lits(&[4, 5]));
    }

    #[test]
    fn iterators_skip_deleted() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false, 0);
        let b = db.alloc(&lits(&[3, 4]), true, 2);
        let c = db.alloc(&lits(&[5, 6]), true, 2);
        db.free_learnts(&[b]);
        assert!(db.is_deleted(b));
        assert_eq!(db.learnts(), &[c]);
        assert_eq!(db.live_refs(), vec![a, c]);
    }

    #[test]
    fn compaction_keeps_live_clauses_in_order_and_relocates_refs() {
        let mut db = ClauseDb::new();
        let a = db.alloc(&lits(&[1, 2]), false, 0);
        let b = db.alloc(&lits(&[3, 4, 5]), true, 3);
        let c = db.alloc(&lits(&[5, 6]), true, 2);
        let d = db.alloc(&lits(&[-1, -6, 7]), true, 4);
        db.set_activity(c, 2.5);
        db.free_learnts(&[b]);
        assert!(db.needs_compaction(), "7 of 24 words are dead");
        let moved = db.compact();
        assert!(!db.needs_compaction());
        let (a2, c2, d2) = (moved.get(a), moved.get(c), moved.get(d));
        assert_eq!(db.live_refs(), vec![a2, c2, d2]);
        assert_eq!(db.learnts(), &[c2, d2]);
        assert_eq!(db.lits(a2).collect::<Vec<_>>(), lits(&[1, 2]));
        assert_eq!(db.lits(c2).collect::<Vec<_>>(), lits(&[5, 6]));
        assert_eq!(db.lits(d2).collect::<Vec<_>>(), lits(&[-1, -6, 7]));
        assert_eq!((db.lbd(c2), db.activity(c2)), (2, 2.5));
        assert_eq!(db.lbd(d2), 4);
        assert_eq!(db.compactions, 1);
    }
}
