// Command quokka-worker is one worker machine of a process-mode cluster:
// it dials the head node's wire endpoint, opens its own flight mailbox on a
// listener of its own (same interface, ephemeral port: no flag), announces
// its worker id and that address, and runs task-manager threads for every
// query the head ships it — against its own mailbox by function call, its
// peers' mailboxes and the head's GCS and object store (table objects
// cached once fetched) over the wire, and a local spill directory standing
// in for the worker's NVMe.
//
// The process is disposable by design: SIGKILL it at any moment and the
// head's liveness detection — the control conn, nothing else — fails the
// worker, triggering the engine's write-ahead-lineage rewind/replay
// recovery on the survivors; its mailbox is gone because it is.
//
// Usage:
//
//	quokka-worker -head 127.0.0.1:7070 -id 0 [-slots 8] [-mem 0] [-spill DIR]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"quokka/internal/wire"
)

func main() {
	var (
		head  = flag.String("head", "", "head node wire address (host:port, required)")
		id    = flag.Int("id", -1, "worker id (0-based slot in the head's cluster, required)")
		slots = flag.Int("slots", 0, "CPU slots: cap on task-manager threads per query (0 = query default)")
		mem   = flag.Int64("mem", 0, "per-query accounted operator memory budget in bytes (0 = query default)")
		spill = flag.String("spill", "", "spill directory (default: a fresh temp dir, removed at exit)")
	)
	flag.Parse()
	if *head == "" || *id < 0 {
		fmt.Fprintln(os.Stderr, "quokka-worker: -head and -id are required")
		flag.Usage()
		os.Exit(2)
	}

	// SIGTERM/SIGINT stop cleanly; SIGKILL is the point of the exercise.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	err := wire.RunWorker(ctx, wire.WorkerConfig{
		Head:         *head,
		ID:           *id,
		Slots:        *slots,
		MemoryBudget: *mem,
		SpillDir:     *spill,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "quokka-worker %d: %v\n", *id, err)
		os.Exit(1)
	}
}
