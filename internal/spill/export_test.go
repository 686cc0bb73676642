package spill

// Used returns the currently accounted bytes across all attached
// accountants.
func (l *Ledger) Used() int64 { return l.cur.Load() }

// Peak returns the high-water mark of accounted bytes.
func (l *Ledger) Peak() int64 { return l.peak.Load() }

// Used returns the currently accounted bytes.
func (a *Accountant) Used() int64 { return a.cur.Load() }
