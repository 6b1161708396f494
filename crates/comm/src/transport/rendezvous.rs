//! Typed rendezvous: who is in the world, where each rank binds, and how
//! ranks are grouped — the bootstrap surface that replaces raw env-var
//! plumbing.
//!
//! A [`WorldSpec`] names the master address, one [`RankSpec`] per rank
//! (data-plane bind host + topology group), and is what the launchers and
//! [`crate::CommHandle::tcp_from_spec`] consume. Across a process
//! boundary the spec travels as environment: [`WorldSpec::env_for`] lowers
//! it to `A2SGD_RANK` / `A2SGD_WORLD` / `A2SGD_MASTER_ADDR` — plus the
//! optional `A2SGD_BIND_HOSTS` / `A2SGD_GROUPS` comma lists — and the rank
//! process reads it back with [`Rendezvous::from_env`]. That is the launch
//! path of every multi-process run (`a2sgd::train` on the TCP backend joins
//! its world this way), whether a launcher here or a person set the
//! variables.
//!
//! Per-rank bind hosts are what make the rendezvous multi-host capable:
//! `bind_host: None`, the default, binds a rank's data listener on the
//! master's host, while a rank on another machine sets the address its
//! peers can actually route to.

use crate::transport::tcp;

/// One rank's bootstrap entry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RankSpec {
    /// Host (no port) this rank binds its data-plane listener on and
    /// advertises to peers. `None` falls back to the master's host — the
    /// single-host default.
    pub bind_host: Option<String>,
    /// Topology group this rank belongs to (hierarchical communicators
    /// split on it); 0 for flat worlds.
    pub group: usize,
}

/// The typed description of a world: master handoff plus per-rank
/// addresses and group assignments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldSpec {
    /// Rank-0 rendezvous address, `host:port`.
    pub master_addr: String,
    /// Per-rank entries; `ranks.len()` is the world size.
    pub ranks: Vec<RankSpec>,
}

impl WorldSpec {
    /// A flat single-host world: every rank binds on the master's host.
    pub fn single_host(master_addr: impl Into<String>, world: usize) -> Self {
        assert!(world >= 1, "world must be ≥ 1");
        WorldSpec {
            master_addr: master_addr.into(),
            ranks: (0..world).map(|_| RankSpec::default()).collect(),
        }
    }

    /// A single-host world of `groups` groups × `group_size` ranks, ranks
    /// grouped contiguously (rank `r` in group `r / group_size`).
    pub fn grouped(master_addr: impl Into<String>, groups: usize, group_size: usize) -> Self {
        assert!(groups >= 1 && group_size >= 1);
        WorldSpec {
            master_addr: master_addr.into(),
            ranks: (0..groups * group_size)
                .map(|r| RankSpec { bind_host: None, group: r / group_size })
                .collect(),
        }
    }

    /// World size.
    pub fn world(&self) -> usize {
        self.ranks.len()
    }

    /// Number of distinct groups (`max + 1`; groups are dense by
    /// convention).
    pub fn groups(&self) -> usize {
        self.ranks.iter().map(|r| r.group).max().map_or(0, |g| g + 1)
    }

    /// How many ranks (itself included) bind the host `rank` binds — the
    /// ranks whose compute threads compete for that machine's cores. An
    /// unset `bind_host` is the master's host.
    pub fn ranks_on_host(&self, rank: usize) -> usize {
        let master = self.master_addr.rsplit_once(':').map_or(&*self.master_addr, |(h, _)| h);
        // IPv6 literals arrive bracketed ("[::1]:29500"); bind hosts are bare.
        let master = master.trim_start_matches('[').trim_end_matches(']');
        let host = |r: usize| self.ranks[r].bind_host.as_deref().unwrap_or(master);
        (0..self.world()).filter(|&r| host(r) == host(rank)).count()
    }

    /// The shrunken world left after removing dead ranks: survivors keep
    /// their bind hosts and are renumbered densely in old-rank order, and
    /// group ids are re-densified (surviving distinct ids, ascending).
    /// Every survivor computes this from the same `alive` census, so all
    /// of them derive the identical spec without any extra exchange — the
    /// re-rendezvous bootstrap of shrink-and-continue recovery.
    pub fn shrink(&self, alive: &[bool]) -> WorldSpec {
        assert_eq!(alive.len(), self.world(), "census size must match the world");
        let survivors: Vec<usize> = (0..self.world()).filter(|&r| alive[r]).collect();
        assert!(!survivors.is_empty(), "no survivors to shrink to");
        let mut gids: Vec<usize> = survivors.iter().map(|&r| self.ranks[r].group).collect();
        gids.sort_unstable();
        gids.dedup();
        WorldSpec {
            master_addr: self.master_addr.clone(),
            ranks: survivors
                .iter()
                .map(|&r| RankSpec {
                    bind_host: self.ranks[r].bind_host.clone(),
                    group: gids.binary_search(&self.ranks[r].group).unwrap(),
                })
                .collect(),
        }
    }

    /// The same world with the master port offset by `epoch` — a
    /// deterministic, channel-free address for re-rendezvous generation
    /// `epoch` (every survivor derives the same address; the old master
    /// port may still be lingering in TIME_WAIT).
    pub fn with_epoch(&self, epoch: u32) -> WorldSpec {
        let (host, port) = self
            .master_addr
            .rsplit_once(':')
            .unwrap_or_else(|| panic!("master_addr {:?} is not host:port", self.master_addr));
        let port: u32 = port
            .parse()
            .unwrap_or_else(|e| panic!("master_addr port {port:?} is not a number: {e}"));
        let port = port + epoch;
        assert!(port <= u16::MAX as u32, "epoch {epoch} pushed master port past 65535");
        WorldSpec { master_addr: format!("{host}:{port}"), ranks: self.ranks.clone() }
    }

    /// The environment a child process of `rank` needs so that
    /// [`Rendezvous::from_env`] reconstructs this spec — the lowering that
    /// keeps env-launched children and spec-driven parents interoperable.
    pub fn env_for(&self, rank: usize) -> Vec<(&'static str, String)> {
        let mut env = vec![
            (tcp::ENV_RANK, rank.to_string()),
            (tcp::ENV_WORLD, self.world().to_string()),
            (tcp::ENV_MASTER_ADDR, self.master_addr.clone()),
        ];
        if self.ranks.iter().any(|r| r.bind_host.is_some()) {
            let hosts: Vec<&str> =
                self.ranks.iter().map(|r| r.bind_host.as_deref().unwrap_or("")).collect();
            env.push((tcp::ENV_BIND_HOSTS, hosts.join(",")));
        }
        if self.ranks.iter().any(|r| r.group != 0) {
            let groups: Vec<String> = self.ranks.iter().map(|r| r.group.to_string()).collect();
            env.push((tcp::ENV_GROUPS, groups.join(",")));
        }
        env
    }
}

/// A rank's resolved bootstrap: its identity plus the world it joins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rendezvous {
    /// This process's rank in `0..spec.world()`.
    pub rank: usize,
    /// The world description.
    pub spec: WorldSpec,
}

impl Rendezvous {
    /// Reads this rank's place in the world from the process environment:
    /// `A2SGD_RANK`/`A2SGD_WORLD`/`A2SGD_MASTER_ADDR` (required), plus
    /// `A2SGD_BIND_HOSTS` (comma list, empty entry = master's host) and
    /// `A2SGD_GROUPS` (comma list of group ids) when present. Errors name
    /// the missing or malformed variable.
    pub fn from_env() -> Result<Self, String> {
        let get = |k: &str| std::env::var(k).map_err(|_| format!("{k} is not set"));
        let number = |k: &str| -> Result<usize, String> {
            get(k)?.parse().map_err(|e| format!("{k} not a number: {e}"))
        };
        let (rank, world) = (number(tcp::ENV_RANK)?, number(tcp::ENV_WORLD)?);
        let master_addr = get(tcp::ENV_MASTER_ADDR)?;
        if world == 0 || rank >= world {
            return Err(format!("rank {rank} out of range for world {world}"));
        }
        // An optional comma list with one entry per rank.
        let per_rank = |k: &str| -> Result<Option<Vec<String>>, String> {
            let Ok(list) = std::env::var(k) else { return Ok(None) };
            let entries: Vec<String> = list.split(',').map(str::to_string).collect();
            if entries.len() != world {
                return Err(format!("{k} has {} entries for world {world}", entries.len()));
            }
            Ok(Some(entries))
        };
        let mut spec = WorldSpec::single_host(master_addr, world);
        for (r, h) in per_rank(tcp::ENV_BIND_HOSTS)?.into_iter().flatten().enumerate() {
            spec.ranks[r].bind_host = (!h.is_empty()).then_some(h);
        }
        for (r, g) in per_rank(tcp::ENV_GROUPS)?.into_iter().flatten().enumerate() {
            spec.ranks[r].group =
                g.parse().map_err(|e| format!("{} entry {r}: {e}", tcp::ENV_GROUPS))?;
        }
        Ok(Rendezvous { rank, spec })
    }

    /// Establishes this rank's TCP mesh per the spec.
    pub fn connect(&self) -> Result<tcp::Tcp, String> {
        tcp::Tcp::connect_spec(self.rank, &self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_env_reports_missing_vars() {
        // Only meaningful outside a launched child (no rendezvous env set).
        if std::env::var(tcp::ENV_RANK).is_err() {
            let e = Rendezvous::from_env().unwrap_err();
            assert!(e.contains("A2SGD_"), "unhelpful error: {e}");
        }
    }

    #[test]
    fn grouped_spec_lays_out_contiguous_groups() {
        let spec = WorldSpec::grouped("127.0.0.1:29500", 2, 3);
        assert_eq!(spec.world(), 6);
        assert_eq!(spec.groups(), 2);
        assert_eq!(spec.ranks.iter().map(|r| r.group).collect::<Vec<_>>(), [0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn env_lowering_round_trips_hosts_and_groups() {
        let mut spec = WorldSpec::grouped("10.0.0.1:29500", 2, 2);
        spec.ranks[2].bind_host = Some("10.0.0.2".into());
        spec.ranks[3].bind_host = Some("10.0.0.2".into());
        let env = spec.env_for(2);
        let get = |k: &str| env.iter().find(|(ek, _)| *ek == k).map(|(_, v)| v.clone());
        assert_eq!(get("A2SGD_RANK").unwrap(), "2");
        assert_eq!(get("A2SGD_WORLD").unwrap(), "4");
        assert_eq!(get("A2SGD_MASTER_ADDR").unwrap(), "10.0.0.1:29500");
        assert_eq!(get("A2SGD_BIND_HOSTS").unwrap(), ",,10.0.0.2,10.0.0.2");
        assert_eq!(get("A2SGD_GROUPS").unwrap(), "0,0,1,1");
    }

    #[test]
    fn shrink_renumbers_ranks_and_densifies_groups() {
        let mut spec = WorldSpec::grouped("127.0.0.1:29500", 3, 2); // groups 0,0,1,1,2,2
        spec.ranks[4].bind_host = Some("10.0.0.9".into());
        // Kill ranks 2 and 3 — all of group 1 dies.
        let shrunk = spec.shrink(&[true, true, false, false, true, true]);
        assert_eq!(shrunk.world(), 4);
        // Old group 2 densifies to 1; survivors keep their bind hosts.
        assert_eq!(shrunk.ranks.iter().map(|r| r.group).collect::<Vec<_>>(), [0, 0, 1, 1]);
        assert_eq!(shrunk.groups(), 2);
        assert_eq!(shrunk.ranks[2].bind_host.as_deref(), Some("10.0.0.9"));
        assert_eq!(shrunk.master_addr, spec.master_addr);
    }

    #[test]
    fn ranks_on_host_counts_the_ranks_that_share_a_bind_host() {
        let single = WorldSpec::single_host("127.0.0.1:29500", 4);
        assert!((0..4).all(|r| single.ranks_on_host(r) == 4));
        let mut v6 = WorldSpec::single_host("[::1]:29500", 2);
        v6.ranks[1].bind_host = Some("::1".into());
        assert_eq!(v6.ranks_on_host(0), 2);

        // Two machines: ranks 0–2 on the master's (rank 1 names it
        // explicitly), ranks 3–4 on another.
        let mut two = WorldSpec::single_host("10.0.0.1:29500", 5);
        two.ranks[1].bind_host = Some("10.0.0.1".into());
        two.ranks[3].bind_host = Some("10.0.0.2".into());
        two.ranks[4].bind_host = Some("10.0.0.2".into());
        let per_rank: Vec<usize> = (0..5).map(|r| two.ranks_on_host(r)).collect();
        assert_eq!(per_rank, [3, 3, 3, 2, 2]);

        // Rank 3 dies: the survivor on the second machine has it to itself,
        // the first machine is as crowded as before.
        let shrunk = two.shrink(&[true, true, true, false, true]);
        let per_rank: Vec<usize> = (0..4).map(|r| shrunk.ranks_on_host(r)).collect();
        assert_eq!(per_rank, [3, 3, 3, 1]);
    }

    #[test]
    fn with_epoch_offsets_the_master_port_only() {
        let spec = WorldSpec::single_host("127.0.0.1:29500", 3);
        let e2 = spec.with_epoch(2);
        assert_eq!(e2.master_addr, "127.0.0.1:29502");
        assert_eq!(e2.ranks, spec.ranks);
        // IPv6 literals keep their brackets intact.
        let v6 = WorldSpec::single_host("[::1]:29500", 2).with_epoch(1);
        assert_eq!(v6.master_addr, "[::1]:29501");
    }

    #[test]
    fn flat_single_host_spec_lowers_to_bare_legacy_env() {
        // No bind hosts, no groups: children see exactly the three legacy
        // variables — the back-compat contract.
        let env = WorldSpec::single_host("127.0.0.1:1", 2).env_for(1);
        let keys: Vec<&str> = env.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["A2SGD_RANK", "A2SGD_WORLD", "A2SGD_MASTER_ADDR"]);
    }
}
