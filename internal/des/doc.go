// Package des implements a deterministic discrete-event simulation engine
// that can run single-threaded or as N coordinated shards.
//
// The engine advances a virtual clock and runs simulated processes
// cooperatively: exactly one process of an engine executes at a time, and
// all ties in wake-up time are broken by scheduling sequence number, so a
// simulation is bit-reproducible across runs regardless of host
// scheduling. Processes are ordinary goroutines that hand control back to
// the engine whenever they perform a blocking simulation primitive (Sleep,
// resource Acquire, queue Get). The package provides FIFO resources with
// integer capacity, unbounded message queues, condition broadcasts, and
// waitgroups (a one-shot wait is a waitgroup at count 1) — enough to model
// compute engines, buses, NICs, and MPI-style message passing.
//
// # Concurrency contract
//
// Everything in this package is governed by three ownership rules.
//
// Engine-confined state. An Engine's clock, event heap, post buffer,
// process table, and open-future set are touched only by the goroutine
// currently driving that engine: the owning goroutine before Run, then
// exactly one of {the dispatch loop, the single running process} at a
// time. The process table holds live processes only — one leaves when its
// body returns — so an engine's memory follows what is running, not what
// has run. Primitives (Resource, Queue, Cond, WaitGroup) are engine-
// confined too, with one twist: a primitive keeps no engine of its own
// (its constructor's engine argument names the first owner and is not
// stored) and delivers every wake-up on the parked process's OWN engine —
// which is what lets hardware models (NICs, PCIe links, GPU engines) be
// leased to tenants on different shards over time without any locking.
// A primitive must never be touched concurrently from two shards; callers
// guarantee that by confining each cooperating process group (a job's
// gang) to one shard and leasing shared hardware whole-node, so at any
// instant each primitive has exactly one owning shard.
//
// Shard ownership. A ShardSet runs N engines in rounds under conservative
// lookahead: each round the coordinator computes, from every shard's
// next-event time and the declared cross-shard edge latencies, a safe
// horizon per shard, and shards run concurrently strictly below their
// horizons. Cross-shard effects travel ONLY through ShardSet.Post, which
// stamps each message with (deliver-at, srcKey, seq) — srcKey names the
// logical sender, stably across shard layouts — and buffers it at the
// destination. A buffered post is applied before any local event at the
// same or later time, so the merged dispatch order of every engine is a
// pure function of the simulation, not of the shard count: 1, 2, and N
// shards produce byte-identical event orders, traces, and outputs. Posts
// must carry at least their edge's declared delay; both Post and delivery
// assert the lookahead invariant (a post can never land behind its
// destination's frontier).
//
// Injector and Future rules. Injectors are the ONLY thread-safe boundary:
// Inject and Close may be called from any foreign goroutine, and the
// running engine (or the coordinator of a ShardSet of two or more)
// applies injections between event dispatches (between rounds, at the
// global frontier, for the coordinator). Futures are the join handles for host work dispatched outside
// the simulation: NewFuture and Join must run on a process of the owning
// engine, Complete/Fail on the worker; every future must be joined before
// shutdown, and both Engine.Run and ShardSet.Run panic on leaks. See
// DESIGN.md, "Sharded engine".
//
// # Boundary ordering
//
// Boundary work recorded at time T runs after every ordinary event at T,
// live and replayed. Boundary work is whatever enters the simulation from
// outside it: an injection, and the replay of one from a recording. Events
// carry an ordering class for this — ties at one wake-up time go first to
// ordinary events in scheduling order, then to boundary events in theirs —
// so where boundary work lands depends only on the time it is stamped
// with, never on how early its wake-up happened to be scheduled. Both
// injector paths spawn in the boundary class; a replaying process reaches
// each record with Proc.SleepLate, zero gaps included, so two records
// stamped T are separated by the ordinary events the first one caused,
// exactly as two injections at T are.
package des
