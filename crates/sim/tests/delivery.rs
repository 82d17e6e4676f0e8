//! Delivery semantics of the pull engine, pinned on hand-built rounds:
//! a receiver's inbox is in increasing port order with repeated-port
//! unicasts in the sender's list order, the sent/delivered/lost/faulted
//! counters add up, and a unicast through a port the sender does not
//! have fails loudly at send time.

use graphgen::{generators, Graph, Port};
use sleeping_congest::{Action, FaultModel, NodeCtx, Outbox, Protocol, SimConfig, Simulator};

/// Scripted sender: sends `at1` in round 1 and records that round's
/// inbox; with `at1 = None` the node sleeps through round 1 instead.
struct Script {
    at1: Option<Outbox<u32>>,
    heard: Vec<(Port, u32)>,
}

impl Protocol for Script {
    type Msg = u32;
    type Output = Vec<(Port, u32)>;
    fn send(&mut self, ctx: &mut NodeCtx) -> Outbox<u32> {
        match &self.at1 {
            Some(out) if ctx.round == 1 => out.clone(),
            _ => Outbox::Silent,
        }
    }
    fn receive(&mut self, ctx: &mut NodeCtx, inbox: &[(Port, u32)]) -> Action {
        match (ctx.round, &self.at1) {
            (0, None) => Action::SleepUntil(2),
            (0, Some(_)) => Action::Continue,
            _ => {
                self.heard = inbox.to_vec();
                Action::Terminate
            }
        }
    }
    fn output(&self) -> Vec<(Port, u32)> {
        self.heard.clone()
    }
}

#[test]
fn inbox_is_port_ordered_with_repeated_ports_in_list_order() {
    // Node 0's ports 0..4 lead to nodes 1..=4; node 1's port 1 leads
    // to node 5, which sleeps through round 1.
    let g = Graph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 5)]).unwrap();
    let run = |loss: f64| {
        let nodes = [
            Some(Outbox::Silent),
            Some(Outbox::Unicast(vec![(1, 11), (0, 10)])),
            Some(Outbox::Unicast(vec![(0, 22), (0, 20), (0, 21)])),
            Some(Outbox::Broadcast(30)),
            Some(Outbox::Broadcast(40)),
            None,
        ]
        .map(|at1| Script { at1, heard: vec![] });
        let fault = FaultModel { loss, ..FaultModel::none() };
        let cfg = SimConfig { fault, ..SimConfig::seeded(4) };
        Simulator::new(g.clone(), nodes.into(), cfg).run().unwrap()
    };

    // 2 + 3 unicast copies and two degree-1 broadcasts; only 1 → 5
    // goes to a sleeper.
    let clean = run(0.0);
    assert_eq!(clean.outputs[0], vec![(0, 10), (1, 22), (1, 20), (1, 21), (2, 30), (3, 40)]);
    let m = &clean.metrics;
    assert_eq!(
        [m.messages_sent, m.messages_delivered, m.messages_lost, m.messages_faulted],
        [7, 6, 1, 0]
    );

    // Total loss drops exactly the copies awake receivers would pull.
    let lossy = run(1.0);
    assert!(lossy.outputs[0].is_empty());
    let m = &lossy.metrics;
    assert_eq!(
        [m.messages_sent, m.messages_delivered, m.messages_lost, m.messages_faulted],
        [7, 0, 1, 6]
    );
}

#[test]
#[should_panic(expected = "out of range")]
fn unicast_to_an_out_of_range_port_panics() {
    let nodes = (0..2).map(|_| Script { at1: Some(Outbox::Unicast(vec![(1, 7)])), heard: vec![] });
    let _ = Simulator::new(generators::path(2), nodes.collect(), SimConfig::default()).run();
}
