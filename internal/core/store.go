package core

import (
	"context"
	"fmt"
	"iter"

	"unprotected/internal/faultstore"
	"unprotected/internal/stream"
)

// storeSource adapts the binary fault store to the Source interface. Its
// WithNodes and WithTimeRange predicates become the store query, so
// segments the manifest index rules out are never opened.
type storeSource struct {
	dir   string
	query faultstore.Query
	err   error // first constructor-option error, surfaced on use
}

// Store returns the Source that reads a binary fault store directory
// (see cmd/faultstore for building one from text logs). It takes
// WithWorkers, WithNodes, WithTimeRange and WithDegraded; WithNodes and
// WithTimeRange prune whole segments via the store index before any I/O.
// Any other option, or an invalid value, surfaces as the error of the
// first Events delivery (and so from Analyze).
func Store(dir string, opts ...Option) stream.Source {
	var o options
	err := o.apply("Store", opts)
	o.query.Workers = o.workers
	return &storeSource{dir: dir, query: o.query, err: err}
}

func (s *storeSource) Events(ctx context.Context) iter.Seq2[stream.Event, error] {
	if s.err != nil {
		return func(yield func(stream.Event, error) bool) {
			yield(stream.Event{}, fmt.Errorf("unprotected: Store: %w", s.err))
		}
	}
	return func(yield func(stream.Event, error) bool) {
		st, err := faultstore.Open(s.dir)
		if err != nil {
			yield(stream.Event{}, fmt.Errorf("unprotected: Store: %w", err))
			return
		}
		for ev, err := range st.Events(ctx, s.query) {
			if !yield(ev, err) {
				return
			}
		}
	}
}
