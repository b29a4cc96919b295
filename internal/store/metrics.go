package store

import "atc/internal/obs"

// Registry-backed remote-read metrics on obs.Default(). Process-wide
// across every RangeReaderAt; the per-instance RemoteStats accessor stays
// authoritative for per-trace views (atcserve exposes those as labeled
// func metrics). Registered at package init so the series exist at zero
// even in a local-only process — a scrape can always tell "no remote
// traffic" from "not instrumented".
var (
	metRemoteFetches = obs.Default().Counter("atc_remote_fetches_total",
		"ranged GETs issued to remote origins (including retries and resumes)")
	metRemoteBytes = obs.Default().Counter("atc_remote_fetch_bytes_total",
		"payload bytes fetched from remote origins")
	metRemoteRetries = obs.Default().Counter("atc_remote_retries_total",
		"transient remote failures retried with backoff")
	metRemoteFetchSec = obs.Default().Histogram("atc_remote_fetch_seconds",
		"remote ranged-GET latency to the response headers (per attempt, success or failure)", obs.DurationBuckets)
)
