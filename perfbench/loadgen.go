package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The serve-mixed reads come from a child process running this same
// binary with --loadgen. In one process, the pacer's nanosleep would
// hold one of the two scheduler Ps while a publish holds the other, and
// the service's handlers would wait for the runtime to notice; across
// processes the kernel schedules the two, as it would a real client.
// The child pins itself to one CPU: left to the kernel's placement, the
// same publish took 14 ms in one run and 20 ms in the next, depending
// on which threads ended up sharing a CPU with it.

// loadJob is the schedule and the requests, sent to the child on stdin.
// Request i is due at Start + i·Period; even requests POST
// Validate[(i/2) mod len], odd ones GET /v1/domain/Names[(i/2) mod len].
type loadJob struct {
	URL      string
	Start    int64 // Unix nanoseconds
	Period   time.Duration
	N        int
	Conns    int
	Validate [][]byte
	Names    []string
}

// loadResult is one request's outcome: its latency from the scheduled
// send, the HTTP status (0 when the request failed) and the body of a
// 200 answer.
type loadResult struct {
	Latency time.Duration
	Status  int
	Body    []byte
}

// loadReport is what the child writes to stdout.
type loadReport struct {
	Results []loadResult
	LagMax  time.Duration
	Last    int64 // Unix nanoseconds of the last completion
}

// runLoad spawns the load generator, hands it the job and returns its
// report once it has exited.
func runLoad(job *loadJob) (*loadReport, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var in bytes.Buffer
	if err := gob.NewEncoder(&in).Encode(job); err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--loadgen")
	cmd.Stdin = &in
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var rep loadReport
	decErr := gob.NewDecoder(out).Decode(&rep)
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	if decErr != nil {
		return nil, fmt.Errorf("load generator report: %w", decErr)
	}
	return &rep, nil
}

// loadgenMain is the child: it offers the job's reads open loop and
// writes the report.
func loadgenMain(stdin io.Reader, stdout io.Writer) error {
	if err := pinToLastCPU(); err != nil {
		return fmt.Errorf("pinning the load generator: %w", err)
	}
	var job loadJob
	if err := gob.NewDecoder(stdin).Decode(&job); err != nil {
		return err
	}
	start := time.Unix(0, job.Start)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * job.Period) }
	results := make([]loadResult, job.N)

	// A pacer on its own OS thread releases request i at its due time;
	// whichever connection is free takes it.
	tokens := make(chan int, job.N) // a slot per request, so the pacer never waits
	go func() {
		defer close(tokens)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for i := 0; i < job.N; i++ {
			sleepUntil(due(i))
			tokens <- i
		}
	}()
	lags := make([]time.Duration, job.Conns)
	lasts := make([]time.Time, job.Conns)
	var wg sync.WaitGroup
	for c := 0; c < job.Conns; c++ {
		client := &http.Client{
			Timeout: serveReadTimeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				free := time.Now()
				i, ok := <-tokens
				if !ok {
					return
				}
				// Lateness is the generator's own: how long after its due
				// time, or after the connection became free if it was
				// busy, the request went out.
				if lag := time.Since(later(due(i), free)); lag > lags[c] {
					lags[c] = lag
				}
				results[i] = send(client, &job, i)
				lasts[c] = time.Now()
				results[i].Latency = lasts[c].Sub(due(i))
			}
		}()
	}
	wg.Wait()
	rep := loadReport{Results: results}
	for c := range lags {
		rep.LagMax = max(rep.LagMax, lags[c])
		rep.Last = max(rep.Last, lasts[c].UnixNano())
	}
	return gob.NewEncoder(stdout).Encode(&rep)
}

// send issues request i and reads its answer.
func send(client *http.Client, job *loadJob, i int) loadResult {
	var req *http.Request
	if i%2 == 0 {
		req, _ = http.NewRequest(http.MethodPost, job.URL+"/v1/validate", bytes.NewReader(job.Validate[(i/2)%len(job.Validate)]))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req, _ = http.NewRequest(http.MethodGet, job.URL+"/v1/domain/"+job.Names[(i/2)%len(job.Names)], nil)
	}
	resp, err := client.Do(req)
	if err != nil {
		return loadResult{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return loadResult{}
	case resp.StatusCode != http.StatusOK:
		return loadResult{Status: resp.StatusCode}
	}
	return loadResult{Status: resp.StatusCode, Body: body}
}

// pinToLastCPU restricts every thread of this process to the highest
// CPU it may run on; threads started later inherit the mask.
func pinToLastCPU() error {
	var allowed, one [16]uint64 // room for 1024 CPUs
	size := unsafe.Sizeof(allowed)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return e
	}
	last := -1
	for cpu := 0; cpu < len(allowed)*64; cpu++ {
		if allowed[cpu/64]&(1<<(cpu%64)) != 0 {
			last = cpu
		}
	}
	if last < 0 {
		return errors.New("no CPU in the affinity mask")
	}
	one[last/64] = 1 << (last % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&one))); e != 0 {
			return e
		}
	}
	return nil
}

// sleepUntil blocks the calling thread until t. It uses nanosleep
// because time.Sleep rounds waits below a millisecond up to about a
// millisecond when the process is idle, which would make the open-loop
// schedule late by up to that much.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
