//! # xqib-core — the XQuery-in-the-Browser plug-in
//!
//! The paper's primary contribution (§4–§5): an XQuery execution environment
//! embedded in the browser. This crate wires the `xqib-xquery` engine to the
//! `xqib-browser` substrate exactly as Figure 1 describes:
//!
//! 1. the browser parses the XHTML page and renders the DOM;
//! 2. the plug-in extracts the `<script type="text/xquery">` prolog and
//!    main query and hands them to the engine, whose XDM store **wraps the
//!    live DOM** — reading/writing the XDM reads/writes the page;
//! 3. the main query runs, typically registering event listeners through
//!    the paper's `on event … attach listener` syntax (or the high-order
//!    `browser:addEventListener` function, the Zorba-era workaround of
//!    §5.1 — both syntaxes call one host routine);
//! 4. the plug-in loops: browser event → dispatch plan (DOM L3 capture/
//!    target/bubble) → listener invocation in the engine → pending updates
//!    applied to the DOM → next event.
//!
//! The `browser:` function library of §4.2 is registered into the engine's
//! dynamic context ([`bindings`]), the BOM is materialised as XML window
//! nodes with same-origin checks ([`window_xml`]), asynchronous `behind`
//! calls are bridged onto the event loop ([`plugin`]), and JavaScript
//! co-existence (§6.2) is supported through external listeners that share
//! the same DOM and the same dispatch machinery.

pub mod bindings;
pub mod plugin;
pub mod samples;
pub mod window_xml;

pub use plugin::{ListenerKind, Plugin, PluginConfig};
