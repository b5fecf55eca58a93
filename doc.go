// Package repro is a from-scratch Go reproduction of "BNS-GCN: Efficient
// Full-Graph Training of Graph Convolutional Networks with
// Partition-Parallelism and Random Boundary Node Sampling" (MLSys 2022).
//
// See ROADMAP.md for the north star and open items, PERFORMANCE.md for how
// the epoch hot path, the transports, elastic training and serving are
// built, bench/README.md for the benchmark every change is judged by, and
// cmd/bnsgcn/README.md and cmd/bnsserve/README.md for the CLIs. bench/
// measures performance; cmd/bnsbench prints every table and figure of the
// paper's evaluation (internal/experiments), whose tests run each one in
// quick mode.
//
// # Communication transports
//
// The partition-parallel protocol (per-layer halo forward/backward, ring
// AllReduce; no rank tells another what it sampled, since each owner computes
// its peers' samples of its rows) runs over a pluggable transport
// (internal/comm.Transport). The in-process channel backend simulates k
// devices as goroutines; the TCP backend runs one OS process per partition
// over real sockets, bootstrapped from a rendezvous address, and is proven
// bit-identical to the channel backend — same weights, losses, and per-rank
// byte counts — by the cross-backend tests in internal/core. See
// cmd/bnsgcn's -rank/-world/-rendezvous flags, examples/multiproc, and the
// transport section of PERFORMANCE.md.
//
// The per-epoch protocol itself runs as a short sequence of named stages
// (internal/core/pipeline.go): halo sends are posted first, rows whose
// aggregation needs no boundary data compute while the exchange is in
// flight, and the drain then receives the peers in ascending rank and
// computes the boundary-dependent rows in one pass. Each stage switches a
// per-rank phase clock, so sampling, compute, exposed communication and
// reduce tile the epoch; EpochStats reports communication both as that
// exposed time and as raw span — exposed plus the compute that ran while an
// exchange was in flight, what the exchange would cost if nothing hid it;
// see PERFORMANCE.md "Overlapped halo exchange".
//
// A rank (core.RankTrainer) holds its partition — local adjacency, the
// features, labels and train mask of its inner rows, its send and receive
// lists — and nothing global: the dataset and the topology it is cut from are
// read at construction and not kept. Full-graph scores therefore come from a
// collective, RankTrainer.Evaluate: the epoch's own plan and forward stages
// over every row at rate 1 with dropout off, each rank scoring its inner rows
// and the ranks exchanging integer counts. The logits are bit for bit
// core.FullTrainer's, which stays as the k=1 baseline and the reference the
// tests compare against.
//
// # Checkpoints
//
// Durable state is one container (internal/core/checkpoint.go: magic,
// version, kind, model section, optional resume section, trailing CRC-32),
// written by one encoder and read by one decoder that checks the frame
// before it parses and bounds every length by the bytes that remain.
// Bit-exact trainer resume, elastic recovery (internal/elastic: one file per
// checkpoint generation, which every rank loads — what a restore reads back
// is the same on every rank, and each derives its own sampling and dropout
// positions from the epoch) and bnsserve's model hydration all start from
// that decoder's result.
package repro
