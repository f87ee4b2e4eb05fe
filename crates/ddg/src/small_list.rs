//! Short id lists kept inline.
//!
//! Every node of a [`DepGraph`](crate::DepGraph) has an operand list, an
//! out-edge list and an in-edge list, and every value a consumer list. Most
//! hold one to four ids, and each II attempt copies all of them from the
//! loop's base graph. As `Vec`s they cost one heap block each; a
//! [`SmallList`] holds the short ones in place, so copying a node costs a
//! few words and no allocation.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// An element of a [`SmallList`]: a `Copy` id with a value that fills the
/// unused inline slots. The filler is never read back as an entry.
pub(crate) trait Slot: Copy {
    /// Content of an unused inline slot.
    const FILL: Self;
}

/// A list that keeps up to `N` entries inline and moves them to a `Vec`
/// once it grows past that.
///
/// It keeps the orderings of a `Vec`: [`SmallList::push`] appends,
/// [`SmallList::insert`] and [`SmallList::remove`] shift the entries after
/// the position and keep their order. A list that has moved to the heap
/// stays there when it shrinks, and `clone_from` into a heap list keeps its
/// buffer, so one content can be held in either form. Equality compares
/// contents only; reads go through the slice the list derefs to.
pub(crate) enum SmallList<T, const N: usize> {
    /// The first `len` entries of `items`.
    Inline { len: u32, items: [T; N] },
    /// Every entry, on the heap.
    Heap(Vec<T>),
}

impl<T: Slot, const N: usize> SmallList<T, N> {
    /// An empty list, in the inline form.
    pub(crate) const fn new() -> Self {
        Self::Inline {
            len: 0,
            items: [T::FILL; N],
        }
    }

    /// Adopt `list`: copied inline when it fits, kept as the heap form
    /// otherwise.
    pub(crate) fn from_vec(list: Vec<T>) -> Self {
        if list.len() > N {
            Self::Heap(list)
        } else {
            list.into_iter().collect()
        }
    }

    /// Append `x`.
    pub(crate) fn push(&mut self, x: T) {
        match self {
            Self::Inline { len, items } if (*len as usize) < N => {
                items[*len as usize] = x;
                *len += 1;
            }
            _ => self.heap_mut().push(x),
        }
    }

    /// Insert `x` at `pos`, shifting the entries from `pos` on one place
    /// up.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is past the end, as `Vec::insert` does.
    pub(crate) fn insert(&mut self, pos: usize, x: T) {
        match self {
            Self::Inline { len, items } if (*len as usize) < N => {
                let end = *len as usize;
                assert!(pos <= end, "insertion index {pos} past length {end}");
                items.copy_within(pos..end, pos + 1);
                items[pos] = x;
                *len += 1;
            }
            _ => self.heap_mut().insert(pos, x),
        }
    }

    /// Remove and return the entry at `pos`, shifting the rest one place
    /// down.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range, as `Vec::remove` does.
    pub(crate) fn remove(&mut self, pos: usize) -> T {
        match self {
            Self::Inline { len, items } => {
                let end = *len as usize;
                assert!(pos < end, "removal index {pos} past length {end}");
                let x = items[pos];
                items.copy_within(pos + 1..end, pos);
                *len -= 1;
                x
            }
            Self::Heap(list) => list.remove(pos),
        }
    }

    /// The heap form's `Vec`, moving the inline entries there first.
    fn heap_mut(&mut self) -> &mut Vec<T> {
        if let Self::Inline { len, items } = self {
            let mut list = Vec::with_capacity(2 * N);
            list.extend_from_slice(&items[..*len as usize]);
            *self = Self::Heap(list);
        }
        match self {
            Self::Heap(list) => list,
            Self::Inline { .. } => unreachable!("moved to the heap above"),
        }
    }
}

impl<T, const N: usize> Deref for SmallList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Self::Inline { len, items } => &items[..*len as usize],
            Self::Heap(list) => list,
        }
    }
}

impl<T, const N: usize> DerefMut for SmallList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Self::Inline { len, items } => &mut items[..*len as usize],
            Self::Heap(list) => list,
        }
    }
}

// A fresh clone takes the inline form whenever the content fits, while
// `clone_from` keeps the destination's heap buffer: a graph buffer that an
// earlier attempt grew keeps its allocations.
impl<T: Slot, const N: usize> Clone for SmallList<T, N> {
    fn clone(&self) -> Self {
        let mut copy = Self::new();
        copy.clone_from(self);
        copy
    }

    fn clone_from(&mut self, source: &Self) {
        match (&mut *self, source) {
            (
                Self::Inline { len, items },
                Self::Inline {
                    len: source_len,
                    items: source_items,
                },
            ) => {
                *len = *source_len;
                *items = *source_items;
            }
            (Self::Heap(list), _) => {
                list.clear();
                list.extend_from_slice(source);
            }
            (Self::Inline { .. }, _) if source.len() > N => *self = Self::Heap(source.to_vec()),
            (Self::Inline { len, items }, _) => {
                items[..source.len()].copy_from_slice(source);
                *len = source.len() as u32;
            }
        }
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a SmallList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Slot, const N: usize> FromIterator<T> for SmallList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Self::new();
        for x in iter {
            list.push(x);
        }
        list
    }
}

impl<T: PartialEq, const N: usize> PartialEq for SmallList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for SmallList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Slot for u32 {
        const FILL: Self = 0;
    }

    type List = SmallList<u32, 3>;

    fn is_inline(list: &List) -> bool {
        matches!(list, SmallList::Inline { .. })
    }

    /// splitmix64, the tests' deterministic generator.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Random pushes, inserts (sorted while the list is sorted, as in the
    /// consumer index), removals by position and `clone_from` in both
    /// directions between the two forms, each checked against a `Vec` that
    /// takes the same steps.
    #[test]
    fn behaves_like_a_vec() {
        let mut state = 0x5eed_0001;
        let (mut inline_into_heap, mut heap_into_inline) = (0, 0);
        for _ in 0..200 {
            let (mut list, mut model) = (List::new(), Vec::new());
            let (mut other, mut other_model) = (List::new(), Vec::new());
            for _ in 0..40 {
                let x = (next(&mut state) % 16) as u32;
                let r = next(&mut state);
                match r % 6 {
                    0 => {
                        list.push(x);
                        model.push(x);
                    }
                    1 | 2 => {
                        let pos = if model.is_sorted() {
                            model.binary_search(&x).unwrap_or_else(|p| p)
                        } else {
                            (r >> 8) as usize % (model.len() + 1)
                        };
                        list.insert(pos, x);
                        model.insert(pos, x);
                    }
                    3 if !model.is_empty() => {
                        let pos = (r >> 8) as usize % model.len();
                        assert_eq!(list.remove(pos), model.remove(pos));
                    }
                    4 => {
                        inline_into_heap += usize::from(is_inline(&list) && !is_inline(&other));
                        heap_into_inline += usize::from(!is_inline(&list) && is_inline(&other));
                        other.clone_from(&list);
                        other_model.clone_from(&model);
                    }
                    _ => {
                        std::mem::swap(&mut list, &mut other);
                        std::mem::swap(&mut model, &mut other_model);
                    }
                }
                assert_eq!(&*list, model.as_slice());
                assert_eq!(&*other, other_model.as_slice());
                assert_eq!(list.clone(), list);
                assert_eq!(list == other, model == other_model);
            }
        }
        assert!(inline_into_heap > 0 && heap_into_inline > 0);
    }

    #[test]
    fn equal_contents_compare_equal_in_either_form() {
        let mut heap = List::from_vec(vec![1, 2, 3, 4]);
        assert!(!is_inline(&heap));
        heap.remove(3);
        let inline = List::from_vec(vec![1, 2, 3]);
        assert!(is_inline(&inline) && !is_inline(&heap));
        assert_eq!(heap, inline);
        assert_eq!(format!("{heap:?}"), "[1, 2, 3]");
        // A fresh clone of the shrunken heap list goes back inline.
        assert!(is_inline(&heap.clone()));
        // `clone_from` into the heap list keeps it on the heap.
        heap.clone_from(&List::new());
        assert!(!is_inline(&heap));
        assert!(heap.is_empty());
    }

    #[test]
    #[should_panic(expected = "removal index 2 past length 2")]
    fn removal_past_the_end_panics() {
        let mut list = List::from_vec(vec![7, 8]);
        list.remove(2);
    }
}
