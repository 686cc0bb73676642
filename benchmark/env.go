package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"quokka/internal/cluster"
	"quokka/internal/engine"
	"quokka/internal/metrics"
	"quokka/internal/storage"
	"quokka/internal/tpch"
	"quokka/internal/wire"
)

// env is one set-up of a workload: the generated dataset loaded into an
// object store, and the cluster the measured passes run on. What newEnv
// does is what setup_s times.
type env struct {
	w        workloadSpec
	store    *storage.ObjectStore
	storeMet *metrics.Collector // object-store counters (the store outlives clusters)
	cl       *cluster.Cluster

	// Process mode only.
	srv     *wire.Server
	workers []*exec.Cmd
	tmp     string
}

// newCluster builds a cluster of n in-memory workers over store. Every
// cluster of the benchmark comes from here, so this is where real time is
// enforced: a cost model that sleeps would make every figure a simulation.
func newCluster(n int, store *storage.ObjectStore) (*cluster.Cluster, error) {
	cl, err := cluster.New(cluster.Options{Workers: n, Cost: storage.TestCostModel(), ObjStore: store})
	if err != nil {
		return nil, err
	}
	if cl.Cost.TimeScale != 0 {
		return nil, fmt.Errorf("cluster cost model has TimeScale %v: the benchmark measures real time only", cl.Cost.TimeScale)
	}
	return cl, nil
}

// newEnv generates the workload's tables, loads them and starts its
// cluster; in process mode it also spawns the worker processes and waits
// until they are attached.
func newEnv(w workloadSpec, workerBin string) (*env, error) {
	e := &env{w: w, storeMet: &metrics.Collector{}}
	e.store = storage.NewObjectStore(storage.TestCostModel(), storage.ProfileS3, e.storeMet)
	tpch.Load(e.store, tpch.Generate(w.SF), w.SplitRows)
	cl, err := newCluster(w.Workers, e.store)
	if err != nil {
		return nil, err
	}
	e.cl = cl
	if !w.Proc {
		return e, nil
	}
	if e.tmp, err = os.MkdirTemp("", "quokka-bench-"); err != nil {
		return nil, err
	}
	if e.srv, err = wire.NewServer(cl, "127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}
	engine.SetRemoteExec(cl, e.srv)
	for i := 0; i < w.Workers; i++ {
		// Spawned here, not through Server.Spawn: the benchmark needs the
		// pids to read the workers' CPU time and resident memory.
		cmd := exec.Command(workerBin, "-head", e.srv.Addr(), "-id", strconv.Itoa(i),
			"-spill", filepath.Join(e.tmp, "spill"+strconv.Itoa(i)))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			e.close()
			return nil, fmt.Errorf("spawn worker %d: %w", i, err)
		}
		e.workers = append(e.workers, cmd)
	}
	if err := e.srv.AwaitWorkers(w.Workers, 30*time.Second); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close stops the worker processes, waits for each, and shuts the wire
// server down. In-memory environments hold nothing that needs closing.
func (e *env) close() {
	for _, cmd := range e.workers {
		_ = cmd.Process.Signal(syscall.SIGTERM) // clean stop: the worker removes its spill dir
	}
	for _, cmd := range e.workers {
		done := make(chan struct{})
		go func() {
			_ = cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
	}
	e.workers = nil
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	if e.tmp != "" {
		_ = os.RemoveAll(e.tmp)
	}
}

// cpuSeconds returns user+system CPU consumed so far by this process and
// by the live worker processes (read from /proc: getrusage only accounts
// for children that have exited).
func (e *env) cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	total := tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	for _, cmd := range e.workers {
		total += procCPUSeconds(cmd.Process.Pid)
	}
	return total
}

// peakRSSMB returns the high-water resident set of this process plus that
// of the live worker processes.
func (e *env) peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := float64(ru.Maxrss) // kilobytes on Linux
	for _, cmd := range e.workers {
		kb += procPeakRSSKB(cmd.Process.Pid)
	}
	return kb / 1024
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// procCPUSeconds reads utime+stime of a live process from /proc/<pid>/stat
// (fields 14 and 15, in clock ticks of 1/100 s on Linux).
func procCPUSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) is parenthesised and may hold spaces.
	s := string(data)
	if i := strings.LastIndexByte(s, ')'); i >= 0 {
		s = s[i+1:]
	}
	f := strings.Fields(s)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	return (utime + stime) / 100
}

// procPeakRSSKB reads the "VmHWM:  N kB" line of /proc/<pid>/status.
func procPeakRSSKB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				v, _ := strconv.ParseFloat(f[1], 64)
				return v
			}
		}
	}
	return 0
}
