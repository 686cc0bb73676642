package ops

import "encoding/gob"

// Plans ship between processes in process mode, carrying each stage's
// Spec as an interface value. Every built-in spec is a data-only struct
// with exported fields; registering the concrete types here is all gob
// needs. A spec of any other type cannot cross a process boundary —
// process mode rejects plans that carry unregistered specs at encode time.
func init() {
	gob.Register(filterSpec{})
	gob.Register(projectSpec{})
	gob.Register(filterProjectSpec{})
	gob.Register(sortSpec{})
	gob.Register(topKSpec{})
	gob.Register(hashAggSpec{})
	gob.Register(hashJoinSpec{})
	gob.Register(Chain{})
}
