//! Introspection of the agent-clustering synchronization protocol.
//!
//! The agent transform ([`AgentKernel`](crate::AgentKernel)) implements
//! the paper's Listing 5: persistent CTAs that bind an SM's cluster,
//! derive an agent id (hardware warp slot on Fermi/Kepler, global atomic
//! ticket plus shared-memory broadcast on Maxwell/Pascal) and consume the
//! cluster's tasks in a strided order. That is a small concurrent
//! protocol, and the `cta-analyzer` crate verifies it — happens-before
//! race checking over the emitted op streams, and bounded model checking
//! over the abstract state machine.
//!
//! This module is the bridge: it exposes the protocol's *constants* (the
//! counter word layout, the broadcast cost) and an architecture-level
//! description ([`ProtocolSpec`]) that a verifier can explore without
//! walking warp programs or constructing kernels.

use gpu_sim::ArchGen;

/// Extra issue latency modelling the shared-memory broadcast that follows
/// the agent-id bid on dynamic-binding architectures (Listing 5).
pub const BROADCAST_COST: u32 = 12;

/// Array tag of the global per-SM agent-counter word
/// (`global_counters[smid]` in Listing 5). Reserved: no workload kernel
/// may use it.
pub const COUNTER_TAG: u16 = u16::MAX;

/// Global address of SM `sm_id`'s agent-counter word.
///
/// The counter array lives in its own tag-addressed region so that the
/// ticket traffic of different SMs stays word-disjoint:
/// `addr = (COUNTER_TAG << 32) + smid * 4`.
pub fn counter_addr(sm_id: usize) -> u64 {
    (u64::from(COUNTER_TAG) << 32) + sm_id as u64 * 4
}

/// How agents of one SM derive their agent id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BindingMode {
    /// Fermi/Kepler: the hardware CTA slot is stable for a persistent
    /// CTA, so the agent id is read off `%warpid` — no synchronization.
    StaticSlot,
    /// Maxwell/Pascal: thread 0 increments the SM's global counter word
    /// atomically, then broadcasts the ticket through shared memory to
    /// the rest of the CTA, which waits on a barrier.
    AtomicTicket,
}

impl BindingMode {
    /// The binding mode architecture `arch` forces.
    pub fn of(arch: ArchGen) -> Self {
        if arch.static_warp_slot_binding() {
            BindingMode::StaticSlot
        } else {
            BindingMode::AtomicTicket
        }
    }
}

/// Architecture-level description of one agent-clustering launch: the
/// facts a protocol verifier needs, decoupled from any concrete kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolSpec {
    /// How agents derive their id.
    pub binding: BindingMode,
    /// SMs (= clusters) in the launch.
    pub num_sms: usize,
    /// `MAX_AGENTS`: persistent CTAs launched per SM.
    pub max_agents: u32,
    /// `ACTIVE_AGENTS`: agents that execute tasks after throttling
    /// (`1 ..= max_agents`).
    pub active_agents: u32,
    /// Tasks per SM cluster (`cluster_sizes[sm]` = `|cluster(sm)|`).
    pub cluster_sizes: Vec<u64>,
}

impl ProtocolSpec {
    /// Task positions `w` agent `agent_id` of SM `sm` consumes, in order
    /// (the strided schedule `w ≡ agent_id (mod ACTIVE_AGENTS)`).
    pub fn tasks_of(&self, sm: usize, agent_id: u64) -> Vec<u64> {
        if sm >= self.num_sms || agent_id >= u64::from(self.active_agents) {
            return Vec::new();
        }
        (agent_id..self.cluster_sizes[sm])
            .step_by(self.active_agents as usize)
            .collect()
    }

    /// Checks the spec's internal invariants (verifiers should refuse
    /// malformed specs rather than "prove" vacuous properties).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 {
            return Err("zero SMs".into());
        }
        if self.max_agents == 0 {
            return Err("zero MAX_AGENTS".into());
        }
        if self.active_agents == 0 || self.active_agents > self.max_agents {
            return Err(format!(
                "ACTIVE_AGENTS {} outside 1..={}",
                self.active_agents, self.max_agents
            ));
        }
        if self.cluster_sizes.len() != self.num_sms {
            return Err(format!(
                "{} cluster sizes for {} SMs",
                self.cluster_sizes.len(),
                self.num_sms
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ProtocolSpec {
        ProtocolSpec {
            binding: BindingMode::AtomicTicket,
            num_sms: 2,
            max_agents: 4,
            active_agents: 2,
            cluster_sizes: vec![5, 3],
        }
    }

    #[test]
    fn counter_words_are_disjoint_per_sm() {
        let a = counter_addr(0);
        let b = counter_addr(1);
        assert_ne!(a / 4, b / 4);
        assert_eq!(a >> 32, u64::from(COUNTER_TAG));
    }

    #[test]
    fn binding_mode_tracks_architecture() {
        assert_eq!(BindingMode::of(ArchGen::Kepler), BindingMode::StaticSlot);
        assert_eq!(BindingMode::of(ArchGen::Pascal), BindingMode::AtomicTicket);
    }

    #[test]
    fn strided_schedule_partitions_each_cluster() {
        let s = spec();
        let mut all: Vec<u64> = (0..2).flat_map(|a| s.tasks_of(0, a)).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        assert!(s.tasks_of(0, 2).is_empty(), "throttled agent idles");
        assert!(s.tasks_of(9, 0).is_empty(), "out-of-range SM");
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        assert!(spec().validate().is_ok());
        let mut s = spec();
        s.active_agents = 5;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.cluster_sizes.pop();
        assert!(s.validate().is_err());
        let mut s = spec();
        s.num_sms = 0;
        s.cluster_sizes.clear();
        assert!(s.validate().is_err());
    }
}
