//! # xqib-dom
//!
//! XML/XHTML document object model for the XQIB reproduction of
//! *"XQuery in the Browser"* (WWW 2009).
//!
//! The crate provides:
//!
//! * an **arena-based DOM**: each [`Document`] owns a `Vec` of nodes addressed
//!   by [`NodeId`] — compact, cache-friendly and free of `Rc` cycles;
//! * a multi-document [`Store`] with global node identity ([`NodeRef`]);
//! * a from-scratch, namespace-aware **XML/XHTML parser** ([`parse_document`]);
//! * **document order** comparison and stable sorting of node sets, an
//!   attribute-value index that answers `//e[@a = "v"]` from a document
//!   node with a lookup, and an element-name index that answers `$v//e`
//!   with two binary searches;
//! * a **mutation API** (insert/detach/replace/rename/deep-copy) used by the
//!   XQuery Update Facility to update live web pages, exactly as the paper's
//!   plug-in updates Internet Explorer's DOM through an XDM wrapper;
//! * serialisation back to markup, one cached image (body + digest) per
//!   document version for whole-document reads, and a composable hash per
//!   subtree, so a changed document's digest re-hashes only what changed;
//! * one pre-order [`Walk`] that every subtree kernel drives instead of
//!   recursing, so no document is too deep to serialize, copy or compare.
//!
//! The DOM is deliberately *untyped* (no schema validation): the paper's whole
//! premise is that XQuery "can natively process (untyped) Web pages" (§3.1).

pub mod arena;
pub mod attr_index;
#[cfg(test)]
mod cache_coherence;
pub mod digest;
pub mod error;
pub mod name;
pub mod name_index;
pub mod node;
pub mod order;
pub mod parser;
pub mod serialize;
mod spare;
pub mod store;
#[cfg(any(test, feature = "testgen"))]
pub mod testgen;
pub mod walk;

pub use arena::{DocImage, Document};
pub use digest::TreeHash;
pub use error::{DomError, DomResult};
pub use name::QName;
pub use node::{NodeId, NodeKind};
pub use order::{cmp_doc_order, sort_dedup, OrderIndex};
pub use parser::{parse_document, ParseOptions};
pub use store::{DocId, NodeRef, ScratchMark, SharedStore, Store};
pub use walk::{Visit, Walk};
