package jobs

import "context"

// BatchItem is one unit of a batch submission.
type BatchItem struct {
	Fn   Func
	Opts SubmitOpts
}

// BatchEntry is the per-item outcome of SubmitBatch. Exactly one of Job
// and Err is set: a rejected item (queue full, manager shut down) fails
// alone without affecting its neighbours.
type BatchEntry struct {
	Job *Job
	// Coalesced reports that the item attached to an identical in-flight
	// job submitted earlier (possibly by this same batch).
	Coalesced bool
	Err       error
}

// SubmitBatch submits every item with coalescing forced on: items that
// share a Key — with each other or with work already in flight — run
// once and share the result, and previously cached keys complete
// instantly. Entries are returned in item order. SubmitBatch is the
// primitive behind the server's /design/batch and /simulate/batch
// endpoints.
func (m *Manager) SubmitBatch(items []BatchItem) []BatchEntry {
	out := make([]BatchEntry, len(items))
	for i, it := range items {
		it.Opts.Coalesce = true
		j, shared, err := m.SubmitCoalesced(it.Fn, it.Opts)
		out[i] = BatchEntry{Job: j, Coalesced: shared, Err: err}
	}
	return out
}

// WaitBatch waits for every successfully submitted entry and returns the
// per-item results and errors in item order. A rejected entry keeps its
// submission error; ctx expiry is recorded as that item's error and the
// remaining items are still visited (their Waits return immediately with
// the same ctx error).
func WaitBatch(ctx context.Context, entries []BatchEntry) ([]any, []error) {
	results := make([]any, len(entries))
	errs := make([]error, len(entries))
	for i, e := range entries {
		if e.Err != nil {
			errs[i] = e.Err
			continue
		}
		results[i], errs[i] = e.Job.Wait(ctx)
	}
	return results, errs
}
