package gstore

import "repro/internal/kvstore"

// Store exposes the tier's KV store, for tests that drive its membership.
func (t *Tier) Store() *kvstore.Store { return t.store }
