package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	twin "repro/bench/_twin"
)

// twinEnv set to 1 makes the dhlbench binary, or its test binary, run as
// the twin (see package twin) for its parent instead of as the benchmark.
const twinEnv = "DHLBENCH_TWIN"

// twinMain is the twin child's main: the job and requests arrive on
// standard input and the replies leave on standard output. Like the
// benchmark's workloads, it runs on one P.
func twinMain() int {
	runtime.GOMAXPROCS(1)
	if err := twin.Serve(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dhlbench twin:", err)
		return 1
	}
	return 0
}

// twinProc is a running twin child.
type twinProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	enc   *json.Encoder
	dec   *json.Decoder
}

// startTwin starts this executable as a twin child for job.
func startTwin(job twin.Job) (*twinProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), twinEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the twin: %w", err)
	}
	p := &twinProc{cmd: cmd, stdin: stdin, enc: json.NewEncoder(stdin), dec: json.NewDecoder(stdout)}
	if err := p.enc.Encode(job); err != nil {
		return nil, errors.Join(fmt.Errorf("sending the twin its job: %w", err), p.close())
	}
	return p, nil
}

// do sends the twin one request and returns its reply. The error reports
// a twin that could not be reached; failures of the work itself are in
// the reply.
func (p *twinProc) do(op string, n int) (twin.Reply, error) {
	if err := p.enc.Encode(twin.Request{Op: op, N: n}); err != nil {
		return twin.Reply{}, fmt.Errorf("twin %s: %w", op, err)
	}
	var r twin.Reply
	if err := p.dec.Decode(&r); err != nil {
		return r, fmt.Errorf("twin %s: %w", op, err)
	}
	return r, nil
}

// rep runs one rep, or a set-up with op OpSetup, of a sim workload on the
// twin and returns it with its wall time in seconds.
func (p *twinProc) rep(op string) (repOut, float64, error) {
	r, err := p.do(op, 0)
	if err == nil && len(r.Errs) > 0 {
		err = fmt.Errorf("twin %s: %s", op, r.Errs[0])
	}
	return repOut{events: r.Events, digest: r.Digest}, float64(r.WallNs) / 1e9, err
}

// twinExitWait is how long close waits for the twin to shut down before
// killing it.
const twinExitWait = 10 * time.Second

// closeInto closes the twin and counts a failure to shut down in tl.
func (p *twinProc) closeInto(tl *tally) {
	if err := p.close(); err != nil {
		tl.fail(err)
	}
}

// close ends the twin's input, which makes it shut down, and waits until
// it has exited.
func (p *twinProc) close() error {
	p.stdin.Close()
	t := time.AfterFunc(twinExitWait, func() { _ = p.cmd.Process.Kill() })
	defer t.Stop()
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	return nil
}
