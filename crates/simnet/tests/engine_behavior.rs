//! Behavioral tests of the simulation engine: latency composition, resource
//! serialization, multicast semantics, loss, failure, timers, and the
//! app-thread model.

use std::any::Any;

use simnet::{
    Addr, Agent, Ctx, FabricParams, FaultCmd, LinkFault, NicParams, Packet, Sim, SimDur, SimTime,
    SwitchEmit, SwitchProgram, ThreadClass, TimerId, Tracer, Verdict,
};

#[derive(Clone, Debug, PartialEq)]
enum Msg {
    Ping(u64),
    Pong(u64),
}

/// Replies to every ping with a pong of the same size.
struct Echo;
impl Agent<Msg> for Echo {
    fn on_packet(&mut self, pkt: Packet<Msg>, ctx: &mut Ctx<'_, Msg>) {
        if let Msg::Ping(x) = pkt.payload {
            ctx.send(pkt.src, pkt.size, Msg::Pong(x));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sends `n` pings of `size` bytes at configurable spacing and records the
/// arrival time of each pong.
struct Pinger {
    server: Addr,
    n: u64,
    size: u32,
    spacing: SimDur,
    replies: Vec<(u64, SimTime)>,
}
impl Pinger {
    fn new(server: Addr, n: u64, size: u32, spacing: SimDur) -> Self {
        Pinger {
            server,
            n,
            size,
            spacing,
            replies: Vec::new(),
        }
    }
}
impl Agent<Msg> for Pinger {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for i in 0..self.n {
            ctx.set_timer(self.spacing * i, i);
        }
    }
    fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Ctx<'_, Msg>) {
        ctx.send(self.server, self.size, Msg::Ping(kind));
    }
    fn on_packet(&mut self, pkt: Packet<Msg>, ctx: &mut Ctx<'_, Msg>) {
        if let Msg::Pong(x) = pkt.payload {
            self.replies.push((x, ctx.now()));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Counts every packet delivered, remembering payloads.
struct Sink {
    got: Vec<(Msg, SimTime)>,
}
impl Agent<Msg> for Sink {
    fn on_packet(&mut self, pkt: Packet<Msg>, ctx: &mut Ctx<'_, Msg>) {
        self.got.push((pkt.payload, ctx.now()));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn sim() -> Sim<Msg> {
    Sim::new(FabricParams::default(), 42)
}

#[test]
fn round_trip_is_microsecond_scale() {
    let mut s = sim();
    let srv = s.add_node(Box::new(Echo));
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        1,
        64,
        SimDur::micros(1),
    )));
    s.run_for(SimDur::millis(1));
    let p = s.agent::<Pinger>(cli);
    assert_eq!(p.replies.len(), 1);
    let rtt = p.replies[0].1 - SimTime::ZERO;
    // §2.3: any two NICs communicate in ≤10µs; a full RTT of two small
    // messages through our model must land well inside 2×10µs.
    assert!(
        rtt > SimDur::micros(2) && rtt < SimDur::micros(15),
        "rtt = {rtt}"
    );
}

#[test]
fn unloaded_latency_is_deterministic_across_runs() {
    let run = || {
        let mut s = sim();
        let srv = s.add_node(Box::new(Echo));
        let cli = s.add_node(Box::new(Pinger::new(
            Addr::node(srv),
            100,
            64,
            SimDur::micros(5),
        )));
        s.run_for(SimDur::millis(10));
        s.agent::<Pinger>(cli).replies.clone()
    };
    assert_eq!(run(), run());
}

#[test]
fn large_messages_pay_serialization() {
    let mut s = sim();
    let srv = s.add_node(Box::new(Echo));
    let small = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        1,
        64,
        SimDur::micros(1),
    )));
    s.run_for(SimDur::millis(1));
    let rtt_small = s.agent::<Pinger>(small).replies[0].1 - SimTime::ZERO;

    let mut s2 = sim();
    let srv2 = s2.add_node(Box::new(Echo));
    let big = s2.add_node(Box::new(Pinger::new(
        Addr::node(srv2),
        1,
        9000,
        SimDur::micros(1),
    )));
    s2.run_for(SimDur::millis(1));
    let rtt_big = s2.agent::<Pinger>(big).replies[0].1 - SimTime::ZERO;

    // 9kB each way = ~14.4µs of extra wire time vs 64B.
    assert!(
        rtt_big > rtt_small + SimDur::micros(10),
        "small {rtt_small} big {rtt_big}"
    );
}

#[test]
fn wire_serializes_back_to_back_sends() {
    // Two 6kB pings sent at the same instant: the second pong must trail the
    // first by at least one 6kB serialization (~5µs at 10G).
    let mut s = sim();
    let srv = s.add_node(Box::new(Echo));
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        2,
        6000,
        SimDur::ZERO,
    )));
    s.run_for(SimDur::millis(1));
    let r = &s.agent::<Pinger>(cli).replies;
    assert_eq!(r.len(), 2);
    let gap = r[1].1 - r[0].1;
    assert!(gap > SimDur::micros(4), "gap = {gap}");
}

#[test]
fn multicast_delivers_to_all_members_but_not_sender() {
    let mut s = sim();
    let a = s.add_node(Box::new(Sink { got: Vec::new() }));
    let b = s.add_node(Box::new(Sink { got: Vec::new() }));
    let c = s.add_node(Box::new(Sink { got: Vec::new() }));
    let g = Addr::group(0);
    s.add_group(g, vec![a, b, c]);
    // Node a multicasts into its own group.
    struct Caster {
        group: Addr,
    }
    impl Agent<Msg> for Caster {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.send(self.group, 100, Msg::Ping(9));
        }
        fn on_packet(&mut self, _p: Packet<Msg>, _c: &mut Ctx<'_, Msg>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let caster = s.add_node(Box::new(Caster { group: g }));
    let _ = caster;
    s.run_for(SimDur::millis(1));
    for n in [a, b, c] {
        assert_eq!(s.agent::<Sink>(n).got.len(), 1, "node {n}");
    }
    // Sender transmitted exactly once (switch does the replication).
    assert_eq!(s.counters(caster).tx_msgs, 1);
}

#[test]
fn multicast_from_member_excludes_itself() {
    let mut s = sim();
    struct SelfCaster {
        group: Addr,
        got: u32,
    }
    impl Agent<Msg> for SelfCaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.send(self.group, 100, Msg::Ping(1));
        }
        fn on_packet(&mut self, _p: Packet<Msg>, _c: &mut Ctx<'_, Msg>) {
            self.got += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let g = Addr::group(0);
    let a = s.add_node(Box::new(SelfCaster { group: g, got: 0 }));
    let b = s.add_node(Box::new(Sink { got: Vec::new() }));
    s.add_group(g, vec![a, b]);
    s.run_for(SimDur::millis(1));
    assert_eq!(s.agent::<SelfCaster>(a).got, 0, "no self-delivery");
    assert_eq!(s.agent::<Sink>(b).got.len(), 1);
}

#[test]
fn loss_rate_drops_copies_independently() {
    let mut s = sim();
    s.set_loss_rate(0.5);
    let srv = s.add_node(Box::new(Echo));
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        1000,
        64,
        SimDur::micros(2),
    )));
    s.run_for(SimDur::millis(10));
    let replies = s.agent::<Pinger>(cli).replies.len();
    // Each RTT survives with p = 0.25; with 1000 trials expect ~250.
    assert!(
        (150..400).contains(&replies),
        "{replies} replies survived at 50% loss"
    );
    assert!(s.counters(srv).dropped_loss + s.counters(cli).dropped_loss > 500);
}

#[test]
fn drop_filter_targets_specific_copies() {
    let mut s = sim();
    // Drop every ping with an even sequence number.
    s.set_drop_filter(Some(Box::new(
        |pkt, _node, _now| matches!(pkt.payload, Msg::Ping(x) if x % 2 == 0),
    )));
    let srv = s.add_node(Box::new(Echo));
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        10,
        64,
        SimDur::micros(5),
    )));
    s.run_for(SimDur::millis(1));
    let got: Vec<u64> = s.agent::<Pinger>(cli).replies.iter().map(|r| r.0).collect();
    assert_eq!(got, vec![1, 3, 5, 7, 9]);
}

#[test]
fn killed_node_goes_silent() {
    let mut s = sim();
    let srv = s.add_node(Box::new(Echo));
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        10,
        64,
        SimDur::micros(100),
    )));
    s.kill_at(srv, SimTime::ZERO + SimDur::micros(450));
    s.run_for(SimDur::millis(2));
    // Pings 0..=4 go out before the kill takes effect; later ones are eaten.
    let replies = s.agent::<Pinger>(cli).replies.len();
    assert!(replies <= 5, "{replies}");
    assert!(replies >= 4, "{replies}");
    assert!(s.counters(srv).dropped_dead >= 5);
    assert!(!s.is_alive(srv));
}

#[test]
fn rx_ring_overflow_drops_arrivals() {
    let mut s = Sim::new(FabricParams::default(), 7);
    let nic = NicParams {
        rx_ring: 4,
        // Make RX processing glacial so the ring fills.
        rx_cpu_per_frag: SimDur::micros(100),
        ..NicParams::default()
    };
    let srv = s.add_node_with(Box::new(Echo), nic);
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        64,
        64,
        SimDur::micros(1),
    )));
    let _ = cli;
    s.run_for(SimDur::millis(20));
    let c = s.counters(srv);
    assert!(c.rx_dropped_backlog > 0, "{c:?}");
    assert!(c.rx_msgs < 64);
}

#[test]
fn app_thread_serializes_work_and_replies_from_app() {
    // A server that defers each request to the app thread for 10µs and
    // replies from `on_app_done`: two simultaneous requests must complete
    // 10µs apart, demonstrating app-thread FIFO serialization.
    struct AppServer {
        pending: Vec<(Addr, u64)>,
    }
    impl Agent<Msg> for AppServer {
        fn on_packet(&mut self, pkt: Packet<Msg>, ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Ping(x) = pkt.payload {
                self.pending.push((pkt.src, x));
                ctx.exec_app(SimDur::micros(10), self.pending.len() as u64 - 1);
            }
        }
        fn on_app_done(&mut self, token: u64, ctx: &mut Ctx<'_, Msg>) {
            assert_eq!(ctx.thread(), ThreadClass::App);
            let (dst, x) = self.pending[token as usize];
            ctx.send(dst, 8, Msg::Pong(x));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut s = sim();
    let srv = s.add_node(Box::new(AppServer {
        pending: Vec::new(),
    }));
    let cli = s.add_node(Box::new(Pinger::new(Addr::node(srv), 2, 64, SimDur::ZERO)));
    s.run_for(SimDur::millis(1));
    let r = &s.agent::<Pinger>(cli).replies;
    assert_eq!(r.len(), 2);
    let gap = r[1].1 - r[0].1;
    assert!(
        gap >= SimDur::micros(10) && gap < SimDur::micros(12),
        "gap = {gap}"
    );
}

#[test]
fn switch_program_can_rewrite_and_consume() {
    /// Redirects pings addressed to a virtual address onto a group, and
    /// swallows pongs entirely.
    struct Redirector {
        vip: Addr,
        group: Addr,
        seen: u64,
    }
    impl SwitchProgram<Msg> for Redirector {
        fn process(
            &mut self,
            mut pkt: Packet<Msg>,
            _now: SimTime,
            _out: &mut SwitchEmit<Msg>,
        ) -> Verdict<Msg> {
            self.seen += 1;
            match pkt.payload {
                Msg::Ping(_) if pkt.dst == self.vip => {
                    pkt.dst = self.group;
                    Verdict::Forward(pkt)
                }
                Msg::Pong(_) => Verdict::Consume,
                _ => Verdict::Forward(pkt),
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    let mut s = sim();
    let vip = Addr::group(99);
    let g = Addr::group(0);
    let a = s.add_node(Box::new(Sink { got: Vec::new() }));
    let b = s.add_node(Box::new(Sink { got: Vec::new() }));
    s.add_group(g, vec![a, b]);
    s.add_group(vip, vec![]);
    let prog = s.add_switch_program(Box::new(Redirector {
        vip,
        group: g,
        seen: 0,
    }));
    let cli = s.add_node(Box::new(Pinger::new(vip, 3, 64, SimDur::micros(1))));
    s.run_for(SimDur::millis(1));
    assert_eq!(s.agent::<Sink>(a).got.len(), 3);
    assert_eq!(s.agent::<Sink>(b).got.len(), 3);
    assert!(s.agent::<Pinger>(cli).replies.is_empty(), "pongs consumed");
    assert!(s.switch_program_mut::<Redirector>(prog).seen >= 3);
}

#[test]
fn counters_track_traffic() {
    let mut s = sim();
    let srv = s.add_node(Box::new(Echo));
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        5,
        200,
        SimDur::micros(1),
    )));
    s.run_for(SimDur::millis(1));
    let cs = s.counters(srv);
    let cc = s.counters(cli);
    assert_eq!(cs.rx_msgs, 5);
    assert_eq!(cs.tx_msgs, 5);
    assert_eq!(cs.rx_bytes, 1000);
    assert_eq!(cc.tx_msgs, 5);
    assert_eq!(cc.rx_msgs, 5);
    s.reset_counters();
    assert_eq!(s.counters(srv).rx_msgs, 0);
}

#[test]
fn inject_sends_as_if_from_node() {
    let mut s = sim();
    let srv = s.add_node(Box::new(Echo));
    let cli = s.add_node(Box::new(Sink { got: Vec::new() }));
    // Inject a ping "from" the sink node; the echo replies to it.
    s.inject(cli, Addr::node(srv), 64, Msg::Ping(5));
    s.run_for(SimDur::millis(1));
    let got = &s.agent::<Sink>(cli).got;
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].0, Msg::Pong(5));
    assert_eq!(s.counters(cli).tx_msgs, 1, "charged to the injecting node");
}

#[test]
fn burn_delays_subsequent_net_work() {
    /// Burns 50µs of net-thread time on the first packet, then echoes.
    struct Burner {
        first: bool,
    }
    impl Agent<Msg> for Burner {
        fn on_packet(&mut self, pkt: Packet<Msg>, ctx: &mut Ctx<'_, Msg>) {
            if self.first {
                self.first = false;
                ctx.burn(SimDur::micros(50), ThreadClass::Net);
            }
            if let Msg::Ping(x) = pkt.payload {
                ctx.send(pkt.src, pkt.size, Msg::Pong(x));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut s = sim();
    let srv = s.add_node(Box::new(Burner { first: true }));
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        2,
        64,
        SimDur::micros(10),
    )));
    s.run_for(SimDur::millis(1));
    let r = &s.agent::<Pinger>(cli).replies;
    assert_eq!(r.len(), 2);
    // The burn occupies the network thread before the reply send in the
    // same handler, so even the first reply leaves after ~50µs — and the
    // second ping's processing queues behind it as well.
    let t0 = r[0].1 - SimTime::ZERO;
    assert!(t0 >= SimDur::micros(50), "first reply at {t0}");
    assert!(r[1].1 >= r[0].1, "FIFO preserved");
}

#[test]
fn kill_in_the_past_clamps_to_now_and_repeat_kills_are_noops() {
    let mut s = sim();
    let srv = s.add_node(Box::new(Echo));
    let _cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        30,
        64,
        SimDur::micros(100),
    )));
    s.run_for(SimDur::millis(1));
    // Randomly generated fault schedules can land before `now`; the kill
    // must fire immediately rather than panic or rewind virtual time.
    s.kill_at(srv, SimTime::ZERO + SimDur::micros(1));
    s.kill_at(srv, SimTime::ZERO); // second (also past) kill on a dead node
    s.run_for(SimDur::millis(5));
    assert!(!s.is_alive(srv));
    assert_eq!(s.restarts(srv), 0, "kill is not a restart");
}

#[test]
fn paused_node_defers_delivery_until_resume() {
    let mut s = sim();
    let srv = s.add_node(Box::new(Echo));
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        10,
        64,
        SimDur::micros(50),
    )));
    s.schedule_fault(SimTime::ZERO, FaultCmd::Pause { node: srv });
    s.schedule_fault(
        SimTime::ZERO + SimDur::millis(1),
        FaultCmd::Resume { node: srv },
    );
    s.run_for(SimDur::millis(2));
    let replies = &s.agent::<Pinger>(cli).replies;
    assert_eq!(replies.len(), 10, "a stall loses nothing that fit the ring");
    let resumed = SimTime::ZERO + SimDur::millis(1);
    assert!(
        replies.iter().all(|&(_, at)| at >= resumed),
        "no echo may leave the server while it is stalled: {replies:?}"
    );
}

#[test]
fn partitioned_groups_cannot_exchange_packets_until_heal() {
    let mut s = sim();
    let srv = s.add_node(Box::new(Echo));
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        20,
        64,
        SimDur::micros(100),
    )));
    s.schedule_fault(
        SimTime::ZERO,
        FaultCmd::Partition {
            groups: vec![vec![srv], vec![cli]],
        },
    );
    s.schedule_fault(SimTime::ZERO + SimDur::micros(950), FaultCmd::Heal);
    let tracer = Tracer::new(8);
    s.set_tracer(tracer.clone());
    s.run_for(SimDur::millis(4));
    let replies = &s.agent::<Pinger>(cli).replies;
    // Pings 0..=9 fall inside the partition window and are dropped (no
    // retransmission at this layer); 10..=19 complete after the heal.
    let answered: Vec<u64> = replies.iter().map(|r| r.0).collect();
    assert_eq!(answered, (10..20).collect::<Vec<u64>>());
    // The partition is traced as one node bitmask per group, rendered back
    // as the groups.
    let tail = tracer.render_tail(2);
    let line = tail.lines().next().unwrap();
    assert_eq!(
        line,
        format!("[{:>12}ns] n0    {:<16} [[0], [1]]", 0, "fault_partition")
    );
}

#[test]
fn restart_bumps_the_epoch_and_the_rebuilt_agent_serves_on() {
    let mut s = sim();
    let srv = s.add_node(Box::new(Echo));
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        20,
        64,
        SimDur::micros(100),
    )));
    // The hook decides what survives the crash; Echo is stateless, so
    // "durable state" is the whole agent.
    s.set_restart_hook(Box::new(|_node, _now, old| old));
    s.restart_at(srv, SimTime::ZERO + SimDur::millis(1));
    s.run_for(SimDur::millis(4));
    assert!(s.is_alive(srv));
    assert_eq!(s.restarts(srv), 1);
    let replies = s.agent::<Pinger>(cli).replies.len();
    // At most the ping in flight at the crash instant is lost.
    assert!(replies >= 19, "served {replies}/20 across a restart");
}

/// Counts `on_start` calls and arms one timer, `delay` out, per start.
struct Starter {
    delay: SimDur,
    starts: u32,
    fired: Vec<SimTime>,
}
impl Starter {
    fn new(delay: SimDur) -> Self {
        Starter {
            delay,
            starts: 0,
            fired: Vec::new(),
        }
    }
}
impl Agent<Msg> for Starter {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.starts += 1;
        ctx.set_timer(self.delay, 0);
    }
    fn on_timer(&mut self, _id: TimerId, _kind: u64, ctx: &mut Ctx<'_, Msg>) {
        self.fired.push(ctx.now());
    }
    fn on_packet(&mut self, _p: Packet<Msg>, _c: &mut Ctx<'_, Msg>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn two_restarts_at_one_instant_start_the_survivor_once() {
    let mut s = sim();
    let n = s.add_node(Box::new(Starter::new(SimDur::millis(5))));
    // Every incarnation is a fresh agent, so the count is per incarnation.
    s.set_restart_hook(Box::new(|_node, _now, _old| {
        Box::new(Starter::new(SimDur::millis(5)))
    }));
    let at = SimTime::ZERO + SimDur::millis(1);
    s.restart_at(n, at);
    s.restart_at(n, at);
    s.run_for(SimDur::millis(2));
    assert_eq!(s.restarts(n), 2);
    let starts = s.agent::<Starter>(n).starts;
    assert_eq!(
        starts, 1,
        "on_start ran {starts} times on the live incarnation"
    );
}

#[test]
fn timer_armed_before_a_restart_never_fires_after_it() {
    let mut s = sim();
    // The first incarnation's timer is due at 2 ms, after the 1 ms restart;
    // the second incarnation arms its own for 1 + 2 = 3 ms.
    let n = s.add_node(Box::new(Starter::new(SimDur::millis(2))));
    s.set_restart_hook(Box::new(|_node, _now, old| old));
    s.restart_at(n, SimTime::ZERO + SimDur::millis(1));
    s.run_for(SimDur::millis(4));
    let agent = s.agent::<Starter>(n);
    assert_eq!(agent.starts, 2);
    assert_eq!(agent.fired, vec![SimTime::ZERO + SimDur::millis(3)]);
}

#[test]
fn duplicate_link_fault_delivers_matching_copies_twice() {
    let mut s = sim();
    let srv = s.add_node(Box::new(Echo));
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        5,
        64,
        SimDur::micros(100),
    )));
    s.schedule_fault(
        SimTime::ZERO,
        FaultCmd::Link {
            fault: LinkFault {
                src: None,
                dst: Some(srv),
                extra_delay: SimDur::ZERO,
                dup_prob: 1.0,
                until: SimTime::ZERO + SimDur::millis(1),
            },
        },
    );
    s.run_for(SimDur::millis(2));
    // Every ping reaches the echo server twice; the pongs travel on an
    // unfaulted link, so the client sees exactly double.
    assert_eq!(s.agent::<Pinger>(cli).replies.len(), 10);
}

#[test]
fn delay_link_fault_slows_matching_copies() {
    let mut s = sim();
    let srv = s.add_node(Box::new(Echo));
    let cli = s.add_node(Box::new(Pinger::new(
        Addr::node(srv),
        1,
        64,
        SimDur::micros(10),
    )));
    s.schedule_fault(
        SimTime::ZERO,
        FaultCmd::Link {
            fault: LinkFault {
                src: None,
                dst: Some(srv),
                extra_delay: SimDur::micros(300),
                dup_prob: 0.0,
                until: SimTime::ZERO + SimDur::millis(1),
            },
        },
    );
    s.run_for(SimDur::millis(2));
    let replies = &s.agent::<Pinger>(cli).replies;
    assert_eq!(replies.len(), 1);
    let rtt = replies[0].1 - SimTime::ZERO;
    assert!(
        rtt >= SimDur::micros(300),
        "spike must slow the request: {rtt}"
    );
}

// ---- timer-wheel scheduler behavior (engine level) -------------------------

/// The wheel engine reproduces the binary-heap engine it replaced, event
/// for event: the constants are this world's deliveries (folded FNV-style
/// over `(ping, arrival ns)`) and event count as the heap engine produced
/// them at the last commit that carried it. (The committed `chaos_digest`
/// pins the same property on the full protocol stack; this is the minimal
/// engine-level version that a scheduler regression would hit first.)
#[test]
fn wheel_and_heap_engines_replay_identically() {
    let mut s = Sim::new(FabricParams::default(), 42);
    let server = s.add_node(Box::new(Echo));
    // Mixed spacings: some pings land within one level-0 wheel window
    // of each other, others force the origin across cascade boundaries.
    let c1 = s.add_node(Box::new(Pinger::new(
        Addr::node(server),
        40,
        200,
        SimDur::nanos(700),
    )));
    let c2 = s.add_node(Box::new(Pinger::new(
        Addr::node(server),
        15,
        1000,
        SimDur::micros(90),
    )));
    s.run_for(SimDur::millis(3));
    let replies = s.agent::<Pinger>(c1).replies.iter();
    let replies = replies.chain(&s.agent::<Pinger>(c2).replies);
    let (mut n, mut h) = (0, 0xcbf2_9ce4_8422_2325_u64);
    for &(ping, at) in replies {
        n += 1;
        for v in [ping, at.as_nanos()] {
            h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(
        (n, h, s.events_processed()),
        (55, 0x59a8_2c6c_1db9_e66a, 388)
    );
}

/// Timers armed for the same instant fire in arming order — the engine's
/// (time, seq) total order reaches through the wheel's same-instant drain,
/// including timers armed at the instant being drained.
#[test]
fn same_instant_timers_fire_in_arming_order() {
    struct T {
        fired_kinds: Vec<u64>,
    }
    impl Agent<Msg> for T {
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for kind in 0..6 {
                ctx.set_timer(SimDur::micros(25), kind);
            }
        }
        fn on_timer(&mut self, _id: TimerId, kind: u64, ctx: &mut Ctx<'_, Msg>) {
            self.fired_kinds.push(kind);
            // First firing re-arms two more for the *same* instant, while
            // the wheel is still draining it: they must come out in arming
            // order, after the batch.
            if kind == 0 {
                ctx.set_timer(SimDur::ZERO, 100);
                ctx.set_timer(SimDur::ZERO, 101);
            }
        }
        fn on_packet(&mut self, _p: Packet<Msg>, _c: &mut Ctx<'_, Msg>) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let mut s = sim();
    let n = s.add_node(Box::new(T {
        fired_kinds: Vec::new(),
    }));
    s.run_for(SimDur::millis(1));
    assert_eq!(
        s.agent::<T>(n).fired_kinds,
        vec![0, 1, 2, 3, 4, 5, 100, 101]
    );
}

// ---- RX ring occupancy seen by handlers --------------------------------------

/// Records [`Ctx::rx_backlog`] as every handler sees it.
struct BacklogProbe {
    /// Arm one timer and one application work item at start.
    idle_work: bool,
    /// (handler, backlog, when)
    seen: Vec<(&'static str, u32, SimTime)>,
}
impl BacklogProbe {
    fn new(idle_work: bool) -> Self {
        BacklogProbe {
            idle_work,
            seen: Vec::new(),
        }
    }
}
impl Agent<Msg> for BacklogProbe {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.idle_work {
            ctx.set_timer(SimDur::micros(100), 0);
            ctx.exec_app(SimDur::micros(5), 0);
        }
    }
    fn on_packet(&mut self, _pkt: Packet<Msg>, ctx: &mut Ctx<'_, Msg>) {
        self.seen.push(("packet", ctx.rx_backlog(), ctx.now()));
    }
    fn on_timer(&mut self, _id: TimerId, _kind: u64, ctx: &mut Ctx<'_, Msg>) {
        self.seen.push(("timer", ctx.rx_backlog(), ctx.now()));
    }
    fn on_app_done(&mut self, _token: u64, ctx: &mut Ctx<'_, Msg>) {
        self.seen.push(("app", ctx.rx_backlog(), ctx.now()));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The backlogs `handler` saw on `node`, in order.
fn backlogs(s: &Sim<Msg>, node: u32, handler: &str) -> Vec<u32> {
    let seen = &s.agent::<BacklogProbe>(node).seen;
    seen.iter()
        .filter(|e| e.0 == handler)
        .map(|e| e.1)
        .collect()
}

/// A NIC whose 20 µs of RX processing per packet lets a burst queue up.
fn slow_rx() -> NicParams {
    NicParams {
        rx_cpu_per_frag: SimDur::micros(20),
        ..NicParams::default()
    }
}

#[test]
fn rx_backlog_counts_down_through_a_burst() {
    let mut s = sim();
    let srv = s.add_node_with(Box::new(BacklogProbe::new(false)), slow_rx());
    s.add_node(Box::new(Pinger::new(Addr::node(srv), 5, 64, SimDur::ZERO)));
    s.run_for(SimDur::millis(1));
    assert_eq!(backlogs(&s, srv, "packet"), vec![4, 3, 2, 1, 0]);
}

#[test]
fn rx_backlog_is_zero_for_timers_and_app_work_on_an_idle_node() {
    let mut s = sim();
    let srv = s.add_node(Box::new(BacklogProbe::new(true)));
    s.run_for(SimDur::millis(1));
    assert_eq!(backlogs(&s, srv, "timer"), vec![0]);
    assert_eq!(backlogs(&s, srv, "app"), vec![0]);
}

#[test]
fn rx_backlog_is_zero_after_a_restart_drops_the_queued_packets() {
    let mut s = sim();
    let srv = s.add_node_with(Box::new(BacklogProbe::new(true)), slow_rx());
    let cli = s.add_node(Box::new(Pinger::new(Addr::node(srv), 5, 64, SimDur::ZERO)));
    s.set_restart_hook(Box::new(|_node, _now, old| old));
    // After the first delivery, with four packets still in the ring.
    let restart = SimTime::ZERO + SimDur::micros(30);
    s.restart_at(srv, restart);
    s.run_for(SimDur::millis(1));
    s.inject(cli, Addr::node(srv), 64, Msg::Ping(9));
    s.run_for(SimDur::millis(1));
    let seen = &s.agent::<BacklogProbe>(srv).seen;
    let before: Vec<u32> = seen
        .iter()
        .filter(|e| e.0 == "packet" && e.2 < restart)
        .map(|e| e.1)
        .collect();
    assert_eq!(before, vec![4], "the restart hit a non-empty ring");
    let after: Vec<(&str, u32)> = seen
        .iter()
        .filter(|e| e.2 >= restart)
        .map(|e| (e.0, e.1))
        .collect();
    assert_eq!(after, vec![("app", 0), ("timer", 0), ("packet", 0)]);
}

#[test]
fn stalled_deliveries_count_down_on_resume() {
    let mut s = sim();
    let srv = s.add_node(Box::new(BacklogProbe::new(false)));
    s.add_node(Box::new(Pinger::new(Addr::node(srv), 5, 64, SimDur::ZERO)));
    s.schedule_fault(SimTime::ZERO, FaultCmd::Pause { node: srv });
    s.schedule_fault(
        SimTime::ZERO + SimDur::micros(500),
        FaultCmd::Resume { node: srv },
    );
    s.run_for(SimDur::millis(1));
    assert_eq!(backlogs(&s, srv, "packet"), vec![4, 3, 2, 1, 0]);
}

// ---- parked packets ----------------------------------------------------------

/// Every copy sent reaches exactly one end: delivered, or counted under
/// one drop reason. A receiver with a slow, shallow RX ring is paused,
/// restarted while paused (deferred and queued deliveries both pending),
/// paused and resumed, killed while paused, restarted from dead,
/// partitioned away and restarted under load, while a unicast and a
/// multicast sender keep packets at the switch, arriving and awaiting
/// delivery throughout. Once the queue drains, the engine holds no
/// packet.
#[test]
fn every_copy_is_delivered_or_counted_dropped_and_none_stays_parked() {
    let mut s = sim();
    let nic = NicParams {
        rx_ring: 8,
        ..slow_rx()
    };
    let r = s.add_node_with(Box::new(Sink { got: Vec::new() }), nic);
    let r2 = s.add_node(Box::new(Sink { got: Vec::new() }));
    let g = Addr::group(0);
    s.add_group(g, vec![r, r2]);
    let unicast = s.add_node(Box::new(Pinger::new(
        Addr::node(r),
        500,
        64,
        SimDur::micros(2),
    )));
    s.add_node(Box::new(Pinger::new(g, 250, 1600, SimDur::micros(4))));
    s.set_loss_rate(0.02);
    s.set_restart_hook(Box::new(|_node, _now, old| old));
    let us = |n| SimTime::ZERO + SimDur::micros(n);
    let node = r;
    for (at, cmd) in [
        (100, FaultCmd::Pause { node }),
        (200, FaultCmd::Restart { node }),
        (300, FaultCmd::Pause { node }),
        (400, FaultCmd::Resume { node }),
        (450, FaultCmd::Pause { node }),
        (500, FaultCmd::Kill { node }),
        (600, FaultCmd::Restart { node }),
        (
            700,
            FaultCmd::Partition {
                groups: vec![vec![r], vec![unicast]],
            },
        ),
        (750, FaultCmd::Heal),
        (850, FaultCmd::Restart { node }),
    ] {
        s.schedule_fault(us(at), cmd);
    }
    s.run_for(SimDur::millis(100));

    assert_eq!(s.parked_packets(), 0, "packets left parked");
    for (node, sent) in [(r, 750), (r2, 250)] {
        let c = s.counters(node);
        let delivered = s.agent::<Sink>(node).got.len() as u64;
        assert_eq!(c.rx_msgs, delivered);
        let dropped = c.rx_dropped_backlog
            + c.dropped_loss
            + c.dropped_dead
            + c.dropped_partition
            + c.dropped_restart;
        assert_eq!(delivered + dropped, sent, "n{node}: {c:?}");
    }
    let c = s.counters(r);
    assert!(
        c.rx_dropped_backlog > 0
            && c.dropped_loss > 0
            && c.dropped_dead > 0
            && c.dropped_partition > 0
            && c.dropped_restart > 0,
        "every drop reason exercised: {c:?}"
    );
}
