//! Typed identifiers for graph nodes and values.

use std::fmt;

/// Identifier of an operation (node) in a [`DepGraph`](crate::DepGraph).
///
/// Node ids are stable for the lifetime of the graph: removing a node does
/// not shift the ids of other nodes, so the scheduler can keep references to
/// nodes across spill insertion and move removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Numeric index of the node.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a value (virtual register) in a [`DepGraph`](crate::DepGraph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// Numeric index of the value.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_and_index() {
        assert_eq!(NodeId(4).to_string(), "n4");
        assert_eq!(ValueId(7).to_string(), "v7");
        assert_eq!(NodeId(4).index(), 4);
        assert_eq!(ValueId(7).index(), 7);
    }

    #[test]
    fn ids_order_by_index() {
        assert!(NodeId(1) < NodeId(2));
        assert!(ValueId(0) < ValueId(10));
    }
}
