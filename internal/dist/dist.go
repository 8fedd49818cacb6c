// Package dist is the fault-tolerant distributed coverage engine: a
// stateless frontend that consistent-hashes coverage-study identities
// onto a registry of compute workers, so the serving layer's
// singleflight property ("one study per unique configuration") holds
// fleet-wide instead of per-process.
//
// The division of labour mirrors the node-variability regime the paper
// studies — workers are expected to differ, flap and die, and none of
// that may change an answer:
//
//   - The frontend owns routing, health and retries. A study's identity
//     (seed + CoverageConfig.Fingerprint) hashes to a preference
//     sequence of workers; the first live one gets the job.
//   - Workers own compute. A worker runs the study and streams
//     replicate-chunk progress back as checkpoint envelopes — the exact
//     bytes internal/checkpoint would write to disk — every few chunks.
//   - When a worker dies mid-study (crash, timeout, SIGKILL), the
//     frontend re-routes the job to the next live worker with the last
//     streamed envelope as resume state. Chunks own disjoint replicate
//     ranges with independently derived RNG streams, so the survivor's
//     output is byte-identical (Float64bits) to an uninterrupted
//     single-process run.
//   - When zero workers are live, the frontend degrades to local
//     in-process compute and flags the response as degraded. Losing the
//     whole fleet costs a latency SLO, never an outage and never a
//     different answer.
//
// Job dispatch is idempotent: the job key is derived from the study's
// (seed, fingerprint) identity and workers key their studies by it in a
// memo.Cache. A re-dispatched or retried job replays the cached points
// instead of recomputing, and a duplicate that arrives while the study
// is still in flight — two frontends dispatching the same study at once
// — joins it, so in-flight duplicates coalesce on the worker and one
// study runs per unique configuration.
package dist

import "fmt"

// JobKey derives the idempotency key of a coverage study from its
// provenance pair. Every retry, re-route and replay of the same study
// carries the same key, so a worker can answer a duplicate dispatch
// from its completed-result cache.
func JobKey(seed, fingerprint uint64) string {
	return fmt.Sprintf("%d-%016x", seed, fingerprint)
}
