//! Links between queue nodes: the one place a stored address becomes a
//! reference.
//!
//! A [`Link`] is an atomic word holding a `&'static N` or a *tag*, an
//! integer below `align_of::<N>()` (the empty link is tag 0): a lock's
//! `tail`, an MCS `next`, and the tagged words of the abortable CLH locks
//! and CNA. Nothing else can be written, and no node lies below its
//! type's alignment, so a word at or above it is a node that lives for
//! the rest of the program, as [`pool`](crate::pool) nodes do. A stale
//! link — the tail `ClhLock::try_lock` reads without owning it — is a
//! stale *reference* to a live node of its type, never a dangling one.
#![deny(unsafe_op_in_unsafe_fn)]

use crate::backoff::{SpinWait, Wait};
use std::fmt;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

/// A [`Link`]'s value read as a tagged word.
#[derive(Debug)]
pub enum Word<N: 'static> {
    /// A node.
    Node(&'static N),
    /// A sentinel below `align_of::<N>()`; 0 is the empty link.
    Tag(usize),
}

impl<N> Clone for Word<N> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<N> Copy for Word<N> {}

impl<N> Word<N> {
    #[inline]
    fn of(node: Option<&'static N>) -> Self {
        node.map_or(Word::Tag(0), Word::Node)
    }

    #[inline]
    fn node(self) -> Option<&'static N> {
        match self {
            Word::Node(node) => Some(node),
            Word::Tag(_) => None,
        }
    }

    #[inline]
    fn encode(self) -> *mut N {
        match self {
            Word::Node(node) => ptr::from_ref(node).cast_mut(),
            Word::Tag(tag) => {
                assert!(tag < align_of::<N>(), "tag {tag} could be a node address");
                ptr::without_provenance_mut(tag)
            }
        }
    }

    #[inline]
    fn decode(p: *mut N) -> Self {
        if p.addr() < align_of::<N>() {
            return Word::Tag(p.addr());
        }
        // SAFETY: only `encode` writes a link, so a word at or above the
        // alignment came from a `&'static N`: valid for the rest of the
        // program, and shareable, as every caller asks `N: Sync`.
        Word::Node(unsafe { &*p })
    }
}

/// An `AtomicPtr<N>` that holds only a `&'static N` or a tag: its
/// operations on `Option<&'static N>` (`None` for any tag) and on a
/// [`Word`], which panic on a tag of `align_of::<N>()` or more.
pub struct Link<N>(AtomicPtr<N>);

impl<N: Sync + 'static> Link<N> {
    /// A link holding `node`, or empty.
    pub const fn new(node: Option<&'static N>) -> Self {
        Link(AtomicPtr::new(match node {
            Some(node) => ptr::from_ref(node).cast_mut(),
            None => ptr::null_mut(),
        }))
    }

    /// The node linked to.
    #[inline]
    pub fn load(&self, order: Ordering) -> Option<&'static N> {
        self.load_word(order).node()
    }

    /// Links `node`, or empties the link.
    #[inline]
    pub fn store(&self, node: Option<&'static N>, order: Ordering) {
        self.store_word(Word::of(node), order)
    }

    /// Links `node` and returns the node linked before.
    #[inline]
    pub fn swap(&self, node: Option<&'static N>, order: Ordering) -> Option<&'static N> {
        Word::decode(self.0.swap(Word::of(node).encode(), order)).node()
    }

    /// Links `new` if the link holds `current`.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: Option<&'static N>,
        new: Option<&'static N>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Option<&'static N>, Option<&'static N>> {
        self.compare_exchange_word(Word::of(current), Word::of(new), success, failure)
            .map(Word::node)
            .map_err(Word::node)
    }

    /// The node linked to, read with no atomic access.
    pub fn get_mut(&mut self) -> Option<&'static N> {
        Word::decode(*self.0.get_mut()).node()
    }

    /// Spins, then yields (a [`SpinWait`]), until a node is linked.
    #[inline]
    pub fn wait_for_node(&self, order: Ordering) -> &'static N {
        let mut wait = SpinWait::new();
        loop {
            if let Some(node) = self.load(order) {
                return node;
            }
            wait.snooze();
        }
    }

    /// The word, read as a node or a tag.
    #[inline]
    pub fn load_word(&self, order: Ordering) -> Word<N> {
        Word::decode(self.0.load(order))
    }

    /// Writes a node or a tag.
    #[inline]
    pub fn store_word(&self, word: Word<N>, order: Ordering) {
        self.0.store(word.encode(), order)
    }

    /// Writes `new` if the word holds `current`.
    #[inline]
    pub fn compare_exchange_word(
        &self,
        current: Word<N>,
        new: Word<N>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<Word<N>, Word<N>> {
        self.0
            .compare_exchange(current.encode(), new.encode(), success, failure)
            .map(Word::decode)
            .map_err(Word::decode)
    }
}

impl<N> fmt::Debug for Link<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Link")
            .field(&self.0.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool;
    use std::sync::atomic::AtomicU64;

    #[allow(dead_code)]
    struct N(AtomicU64);
    crate::pooled_node!(N, || N(AtomicU64::new(0)));

    /// The sentinels the tagged words of CLH-NB (`WAITING`, `AVAILABLE`),
    /// A-CLH (`WAITING`, `AVAIL_LOCAL`, `AVAIL_GLOBAL`, each with and
    /// without the successor-aborted bit) and CNA (`SPIN_WAIT`,
    /// `SPIN_GRANTED`) write.
    const SENTINELS: [usize; 6] = [0, 1, 2, 3, 4, 5];

    fn is_node(word: Word<N>, node: &'static N) -> bool {
        matches!(word, Word::Node(n) if ptr::eq(n, node))
    }

    #[test]
    fn option_operations_round_trip_none_and_a_pool_node() {
        let node = pool::acquire::<N>();
        let link = Link::new(None);
        assert!(link.load(Ordering::Relaxed).is_none());
        assert!(link.swap(Some(node), Ordering::AcqRel).is_none());
        assert!(ptr::eq(link.load(Ordering::Relaxed).unwrap(), node));
        assert!(link
            .compare_exchange(None, None, Ordering::AcqRel, Ordering::Relaxed)
            .is_err_and(|seen| ptr::eq(seen.unwrap(), node)));
        assert!(link
            .compare_exchange(Some(node), None, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok_and(|old| ptr::eq(old.unwrap(), node)));
        assert!(link.swap(None, Ordering::AcqRel).is_none());
        link.store(Some(node), Ordering::Relaxed);
        let mut link = link;
        assert!(ptr::eq(link.get_mut().unwrap(), node));
        link.store(None, Ordering::Relaxed);
        assert!(link.get_mut().is_none());
        // SAFETY: the node was never published beyond this test.
        unsafe { pool::release(node) };
    }

    #[test]
    fn tagged_word_decodes_sentinels_as_tags_and_a_node_as_itself() {
        assert!(SENTINELS.iter().all(|&t| t < align_of::<N>()));
        let node = pool::acquire::<N>();
        let link = Link::<N>::new(None);
        for tag in SENTINELS {
            link.store_word(Word::Tag(tag), Ordering::Relaxed);
            assert!(matches!(link.load_word(Ordering::Relaxed), Word::Tag(t) if t == tag));
            assert!(
                link.load(Ordering::Relaxed).is_none(),
                "tag {tag} read as a node"
            );
            // The successor-aborted bit set by CAS on a sentinel stays a tag.
            let flagged = Word::Tag(tag | 1);
            assert!(link
                .compare_exchange_word(Word::Tag(tag), flagged, Ordering::AcqRel, Ordering::Acquire)
                .is_ok());
            assert!(matches!(link.load_word(Ordering::Relaxed), Word::Tag(t) if t == tag | 1));
        }
        link.store_word(Word::Node(node), Ordering::Relaxed);
        assert!(is_node(link.load_word(Ordering::Relaxed), node));
        assert!(ptr::eq(link.load(Ordering::Relaxed).unwrap(), node));
        assert!(link
            .compare_exchange_word(
                Word::Tag(0),
                Word::Tag(1),
                Ordering::AcqRel,
                Ordering::Acquire
            )
            .is_err_and(|seen| is_node(seen, node)));
        assert!(link
            .compare_exchange_word(
                Word::Node(node),
                Word::Tag(1),
                Ordering::AcqRel,
                Ordering::Acquire
            )
            .is_ok_and(|old| is_node(old, node)));
        assert!(matches!(link.load_word(Ordering::Relaxed), Word::Tag(1)));
        // SAFETY: the node was never published beyond this test.
        unsafe { pool::release(node) };
    }

    #[test]
    #[should_panic(expected = "could be a node address")]
    fn a_tag_at_the_alignment_is_refused() {
        Link::<N>::new(None).store_word(Word::Tag(align_of::<N>()), Ordering::Relaxed);
    }
}
