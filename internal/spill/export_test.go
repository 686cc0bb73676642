package spill

// Used returns the currently accounted bytes.
func (a *Accountant) Used() int64 { return a.cur.Load() }
