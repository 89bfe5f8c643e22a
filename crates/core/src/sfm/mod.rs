//! Speculative Fast Migration (SFM, §IV).
//!
//! * [`policy`] — Algorithm 1, the enhanced failure recovery scheduling
//!   policy: proactive MapTask re-execution, local ReduceTask resume on
//!   still-alive nodes, and capped FCM-mode speculative recovery attempts.
//! * [`fcm`] — Fast Collective Merging: participant nodes pre-merge their
//!   local segments (Local-MPQ) and stream the merged runs to the
//!   recovering ReduceTask's Global-MPQ, keeping everything in memory and
//!   overlapping shuffle, merge and reduce.

pub mod fcm;
pub mod policy;
