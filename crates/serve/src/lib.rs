//! # valpipe-serve — fault-tolerant multi-tenant simulation service
//!
//! A std-only threaded server exposing the compile-and-simulate pipeline
//! over line-delimited JSON on TCP: persistent named sessions, a bounded
//! worker pool behind explicit admission control, budgeted jobs that
//! surface through the stall taxonomy, snapshot-based hibernation of
//! idle sessions, and crash-safe recovery — a `kill -9` of the whole
//! process loses only in-flight jobs, which clients retry against a
//! registry rebuilt from the hibernation directory.
//!
//! The load-bearing idea: the machine is deterministic and its
//! snapshots restore bit-identically at any step (PR 3), so the service
//! never needs write-ahead logs or job journals. Durable state *is* the
//! snapshot; idempotency falls out of addressing jobs to absolute
//! instruction times. See DESIGN.md §13 for the full architecture.

#![warn(missing_docs)]

pub mod client;
pub mod hibernate;
pub mod proto;
pub mod registry;
pub mod server;
pub mod session;

pub use client::Client;
pub use hibernate::{HibernateError, ScanReport};
pub use proto::{ErrorBody, ErrorKind};
pub use registry::Registry;
pub use server::{ServeConfig, Server, Stats};
pub use session::{Advance, JobLimits, SessionCore, SessionSpec};
