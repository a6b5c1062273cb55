// Package chaos is the fault-injection and scenario harness for the
// PEACE transport. Conn is its one fault injector: a deterministic,
// seeded net.PacketConn wrapper that drops, duplicates, reorders, delays
// and bit-corrupts datagrams and cuts timed bidirectional partitions.
// One fleet runner serves a single-router network on UDP loopback and
// drives clients through it, as one concurrent attach wave or as
// self-healing loops along a scripted timeline; RunLoopback,
// RunRevocationDrill, RunSoak, RunRestartSoak, RunAttackSoak and
// RunAttackLatency are each a short declaration on top of it. Each soak
// checks the protocol invariants at the end, among them:
//
//   - every client re-establishes a session with the final server
//     incarnation, and both halves of every session agree on keys — no
//     session ever forms from a corrupted handshake;
//   - duplicated requests are answered by reply-cache replay, never by a
//     second expensive verification;
//   - revocation state never rolls back: every client ends at the
//     router's final epoch even though the bump raced a restart and a
//     partition.
//
// All fault decisions come from seeded pseudo-random streams, so a run is
// reproducible from its seed; wall-clock scheduling still varies, but the
// invariants are timing-independent.
package chaos
