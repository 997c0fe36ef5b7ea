//! # xqib-browser
//!
//! A deterministic **browser substrate** standing in for Internet Explorer
//! in the XQIB reproduction (DESIGN.md substitution table). It implements
//! the observable surface the paper's plug-in programs against:
//!
//! * a **Browser Object Model** — a window/frame tree with `location`,
//!   `status`, `history`, shared `navigator` and `screen` objects (§4.2);
//! * **DOM Level 3 events** — capture → target → bubble dispatch with
//!   listener registration (§4.3);
//! * a **CSS style store** keeping style properties out of the XML tree,
//!   exactly the §4.5 design argument for `set style`/`get style`;
//! * a **same-origin security policy** (§4.2.1) whose failed checks yield
//!   "empty" answers rather than errors;
//! * a **virtual network**: registered REST services, deterministic
//!   latency, byte accounting — the measurement substrate for the Figure 2
//!   and Figure 3 experiments;
//! * a single-threaded **event loop** with a virtual clock, like a real
//!   browser's main thread;
//! * **fault injection & recovery**: seeded per-host failure schedules
//!   ([`net::FaultPlan`]) and the client-side counterpart — retry policies,
//!   circuit breakers and a stale-response cache ([`recovery`]).
//!
//! Everything is deterministic: no wall clock, no ambient randomness.

pub mod bom;
pub mod css;
pub mod event_loop;
pub mod events;
pub mod net;
pub mod quarantine;
pub mod recovery;
pub mod security;

pub use bom::{Browser, Location, Navigator, Screen, WindowId};
pub use css::CssStore;
pub use event_loop::{EventLoop, Task};
pub use events::{DomEvent, EventPhase, EventSystem, ListenerId};
pub use net::{Deferred, Fault, FaultPlan, NetOutcome, Request, Response, VirtualNetwork};
pub use quarantine::{
    IsolationConfig, ListenerGuard, ListenerQuarantine, QuarantineState, QuarantineStats,
};
pub use recovery::{
    BreakerState, CircuitBreaker, RecoveryConfig, RecoveryState, RecoveryStats, RetryPolicy,
    StaleCache, Transition,
};
pub use security::Origin;
