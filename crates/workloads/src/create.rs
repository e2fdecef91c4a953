//! Create-intensive workloads (file-create storms).

use mantle_mds::{ClientOp, Workload};
use mantle_namespace::{Namespace, NodeId, OpKind};
use mantle_sim::SimTime;

/// Each client creates `files_per_client` files in its **own** directory —
/// the workload of Figs. 4 and 5 ("creating 100,000 files in separate
/// directories").
#[derive(Debug, Clone)]
pub struct CreateSeparateDirs {
    clients: usize,
    files_per_client: u64,
    issued: Vec<u64>,
    dirs: Vec<NodeId>,
}

impl CreateSeparateDirs {
    /// New workload for `clients` clients × `files_per_client` creates.
    pub fn new(clients: usize, files_per_client: u64) -> Self {
        assert!(clients > 0, "need at least one client");
        CreateSeparateDirs {
            clients,
            files_per_client,
            issued: vec![0; clients],
            dirs: Vec::new(),
        }
    }

    /// The per-client directories (valid after `setup`).
    pub fn dirs(&self) -> &[NodeId] {
        &self.dirs
    }
}

impl Workload for CreateSeparateDirs {
    fn num_clients(&self) -> usize {
        self.clients
    }

    fn setup(&mut self, ns: &mut Namespace) {
        self.dirs = (0..self.clients)
            .map(|c| ns.mkdir_p(&format!("/client{c}")))
            .collect();
    }

    fn next(&mut self, client: usize, _ns: &Namespace, _now: SimTime) -> Option<ClientOp> {
        if self.issued[client] >= self.files_per_client {
            return None;
        }
        self.issued[client] += 1;
        Some(ClientOp {
            dir: self.dirs[client],
            kind: OpKind::Create,
        })
    }

    fn name(&self) -> &str {
        "create-separate-dirs"
    }

    fn ops_per_client_hint(&self) -> Option<u64> {
        Some(self.files_per_client)
    }
}

/// Every client creates into the **same** directory — the shared-directory
/// storm of §4.1/§4.2 that drives directory fragmentation and the spill
/// balancers.
#[derive(Debug, Clone)]
pub struct CreateSharedDir {
    clients: usize,
    files_per_client: u64,
    issued: Vec<u64>,
    dir: Option<NodeId>,
}

impl CreateSharedDir {
    /// New workload for `clients` clients × `files_per_client` creates into
    /// one shared directory.
    pub fn new(clients: usize, files_per_client: u64) -> Self {
        assert!(clients > 0, "need at least one client");
        CreateSharedDir {
            clients,
            files_per_client,
            issued: vec![0; clients],
            dir: None,
        }
    }

    /// The shared directory (valid after `setup`).
    pub fn dir(&self) -> Option<NodeId> {
        self.dir
    }
}

impl Workload for CreateSharedDir {
    fn num_clients(&self) -> usize {
        self.clients
    }

    fn setup(&mut self, ns: &mut Namespace) {
        self.dir = Some(ns.mkdir_p("/shared"));
    }

    fn next(&mut self, client: usize, _ns: &Namespace, _now: SimTime) -> Option<ClientOp> {
        if self.issued[client] >= self.files_per_client {
            return None;
        }
        self.issued[client] += 1;
        Some(ClientOp {
            dir: self.dir.expect("setup ran"),
            kind: OpKind::Create,
        })
    }

    fn name(&self) -> &str {
        "create-shared-dir"
    }

    fn ops_per_client_hint(&self) -> Option<u64> {
        Some(self.files_per_client)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separate_dirs_builds_one_dir_per_client() {
        let mut w = CreateSeparateDirs::new(3, 5);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        assert_eq!(w.dirs().len(), 3);
        assert_eq!(ns.path(w.dirs()[2]), "/client2");
        // Client 1 issues exactly 5 ops, all creates into its dir.
        let mut n = 0;
        while let Some(op) = w.next(1, &ns, SimTime::ZERO) {
            assert_eq!(op.dir, w.dirs()[1]);
            assert_eq!(op.kind, OpKind::Create);
            n += 1;
        }
        assert_eq!(n, 5);
        // Other clients unaffected.
        assert!(w.next(0, &ns, SimTime::ZERO).is_some());
    }

    #[test]
    fn shared_dir_targets_one_directory() {
        let mut w = CreateSharedDir::new(4, 3);
        let mut ns = Namespace::default();
        w.setup(&mut ns);
        let d = w.dir().unwrap();
        for c in 0..4 {
            for _ in 0..3 {
                let op = w.next(c, &ns, SimTime::ZERO).unwrap();
                assert_eq!(op.dir, d);
            }
            assert!(w.next(c, &ns, SimTime::ZERO).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        CreateSeparateDirs::new(0, 10);
    }
}
