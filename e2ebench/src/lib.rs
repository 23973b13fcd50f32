//! End-to-end benchmark of whole HADFL runs.
//!
//! Three workloads call `hadfl::exec::run_virtual` as a black box; a
//! fourth relays frames round four loopback `hadfl_net::TcpPort`s. A
//! separate traced run ([`traced`]) swaps timing wrappers ([`trace`])
//! in for the port, training state and planner to produce a per-layer
//! ledger. See `README.md` in this directory.

pub mod bench;
pub mod relay;
pub mod stats;
pub mod trace;
pub mod traced;
