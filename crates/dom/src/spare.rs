//! Spare node arenas: a dropped document's arena, emptied, kept on its
//! thread for the next document that needs one as large.
//!
//! Documents come and go in waves: a deployment's set-ups, a browsing
//! session's page and the documents it fetched. When a wave ends, the
//! system allocator gets the wave's arenas back and may hand the top of
//! its heap back to the operating system. The next wave then faults that
//! memory in again, page by page, inside whichever operation first needs
//! more than the allocator kept: in the plug-in, the parse of a document
//! fetched late in a session. Whether the allocator trims depends on
//! thresholds it moves by itself, from the sizes of the blocks it has
//! freed, so one build could pay those faults in every session and the
//! next build in none. Keeping the large arenas here makes their reuse
//! independent of the allocator: a session's parses take the arenas the
//! last session's documents left.

use std::cell::RefCell;

use crate::node::NodeData;

/// Arenas with less room than this go back to the allocator: small
/// documents (a request's constructed fragments, a cart) are cheap to
/// allocate and would only crowd the list.
pub(crate) const MIN_SLOTS: usize = 4096;
/// The most slots a thread keeps, in all its spare arenas together:
/// 64 MiB of 128-byte slots.
const MAX_SLOTS: usize = 1 << 19;

#[derive(Default)]
struct Spare {
    arenas: Vec<Vec<NodeData>>,
    /// Total capacity of `arenas`, in slots.
    slots: usize,
}

thread_local! {
    static SPARE: RefCell<Spare> = RefCell::new(Spare::default());
}

/// An empty arena with room for at least `slots` slots: the smallest kept
/// one that is large enough, if any, and of those the one kept last, the
/// likeliest still to be in cache.
pub(crate) fn take(slots: usize) -> Option<Vec<NodeData>> {
    SPARE
        .try_with(|s| {
            let mut s = s.borrow_mut();
            let (i, _) = s
                .arenas
                .iter()
                .enumerate()
                .rev()
                .filter(|(_, a)| a.capacity() >= slots)
                .min_by_key(|(_, a)| a.capacity())?;
            let arena = s.arenas.remove(i);
            s.slots -= arena.capacity();
            Some(arena)
        })
        .ok()
        .flatten()
}

/// Keeps `arena`, emptied, when it has at least [`MIN_SLOTS`] slots and
/// the thread's spare arenas have room for it; drops it otherwise.
pub(crate) fn keep(mut arena: Vec<NodeData>) {
    let cap = arena.capacity();
    if cap < MIN_SLOTS {
        return;
    }
    arena.clear();
    let _ = SPARE.try_with(|s| {
        let mut s = s.borrow_mut();
        if s.slots + cap <= MAX_SLOTS {
            s.slots += cap;
            s.arenas.push(std::mem::take(&mut arena));
        }
    });
}

/// Slots kept on this thread.
#[cfg(test)]
pub(crate) fn kept() -> usize {
    SPARE.with(|s| s.borrow().slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    fn arena(cap: usize) -> Vec<NodeData> {
        let mut a = Vec::with_capacity(cap);
        a.push(NodeData {
            parent: None,
            kind: NodeKind::Text {
                value: "x".to_string(),
            },
        });
        a
    }

    #[test]
    fn takes_the_smallest_arena_that_fits_emptied() {
        keep(arena(3 * MIN_SLOTS));
        keep(arena(MIN_SLOTS));
        keep(arena(2 * MIN_SLOTS));
        let a = take(MIN_SLOTS + 1).unwrap();
        assert!(a.is_empty());
        assert!(a.capacity() >= 2 * MIN_SLOTS && a.capacity() < 3 * MIN_SLOTS);
        assert!(take(4 * MIN_SLOTS).is_none(), "none is large enough");
        assert!(take(1).unwrap().capacity() < 2 * MIN_SLOTS);
        assert!(take(1).unwrap().capacity() >= 3 * MIN_SLOTS);
        assert!(take(1).is_none());
        assert_eq!(kept(), 0);
    }

    #[test]
    fn of_equal_arenas_takes_the_one_kept_last() {
        let (a, b) = (arena(MIN_SLOTS), arena(MIN_SLOTS));
        let last = b.as_ptr();
        keep(a);
        keep(b);
        let taken = take(MIN_SLOTS).unwrap();
        assert_eq!(taken.as_ptr(), last);
    }

    #[test]
    fn keeps_only_large_arenas_up_to_the_bound() {
        keep(arena(MIN_SLOTS - 1));
        assert_eq!(kept(), 0, "a small arena goes back to the allocator");
        keep(arena(MAX_SLOTS - MIN_SLOTS));
        let held = kept();
        assert_eq!(held, MAX_SLOTS - MIN_SLOTS);
        keep(arena(2 * MIN_SLOTS));
        assert_eq!(kept(), held, "no room for it");
        keep(arena(MIN_SLOTS));
        assert_eq!(kept(), MAX_SLOTS, "room for this one");
    }
}
