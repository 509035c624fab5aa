package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/workloads"
)

// maxCallFrames caps the recorded frames per fabric call; larger calls are
// counted at the cap.
const maxCallFrames = 256

// shape is the traffic a workload hands its transport: the mean frame size
// and how many frames each fabric call carries. The transport and network
// probes replay it, so they run at the sizes and batching the workload
// produces.
type shape struct {
	frames, bytes uint64
	// calls[k] counts SendBatch calls of k frames; calls[0] counts Send
	// calls, which carry one frame each.
	calls [maxCallFrames + 1]uint64
}

// frameBytes is the mean frame size, rounded to whole bytes.
func (s *shape) frameBytes() int {
	return int((s.bytes + s.frames/2) / s.frames)
}

// framesPerCall is the mean number of frames per Send or SendBatch call.
func (s *shape) framesPerCall() float64 {
	var calls uint64
	for _, c := range s.calls {
		calls += c
	}
	return float64(s.frames) / float64(calls)
}

// callSequence draws k call sizes (0 for a Send) from the recorded
// distribution.
func (s *shape) callSequence(rng *rand.Rand, k int) []int {
	var sizes []int
	var cum []uint64
	var total uint64
	for size, c := range s.calls {
		if c > 0 {
			total += c
			sizes = append(sizes, size)
			cum = append(cum, total)
		}
	}
	out := make([]int, k)
	for i := range out {
		r := uint64(rng.Int63n(int64(total)))
		out[i] = sizes[sort.Search(len(cum), func(j int) bool { return cum[j] > r })]
	}
	return out
}

func (s *shape) metrics() map[string]metric {
	return map[string]metric{
		"probe.transport.frame_bytes":     {float64(s.frameBytes()), "B"},
		"probe.transport.frames_per_call": {s.framesPerCall(), "frames"},
	}
}

// countingTransport passes every call through to a process's transport
// handle and records the frames the network layer hands it.
type countingTransport struct {
	transport.Transport
	frames, bytes atomic.Uint64
	calls         [maxCallFrames + 1]atomic.Uint64
}

func (c *countingTransport) Send(dst transport.EndpointID, data []byte) error {
	c.frames.Add(1)
	c.bytes.Add(uint64(len(data)))
	c.calls[0].Add(1)
	return c.Transport.Send(dst, data)
}

func (c *countingTransport) SendBatch(dst transport.EndpointID, frames [][]byte) error {
	n := 0
	for _, f := range frames {
		n += len(f)
	}
	c.frames.Add(uint64(len(frames)))
	c.bytes.Add(uint64(n))
	c.calls[min(len(frames), maxCallFrames)].Add(1)
	return c.Transport.SendBatch(dst, frames)
}

// trafficShape runs the workload once with its simulated processes built
// directly on a channel fabric whose handles count the traffic, and
// returns what they counted. The frames are the network layer's whichever
// fabric carries them, so a multi-process workload keeps its processes but
// not its TCP sockets here.
func trafficShape(w workload, seed int64) (*shape, error) {
	cfg, err := w.config(seed)
	if err != nil {
		return nil, err
	}
	cfg.Transport = config.TransportChannel
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	app, ok := workloads.Get(w.app)
	if !ok {
		return nil, fmt.Errorf("unknown application %q", w.app)
	}
	prog := app.Build(w.params())

	fab := transport.NewChannelFabricSized(transport.StripedRoute(cfg.Processes), cfg.Tiles)
	var trs []*countingTransport
	var procs []*core.Proc
	// The teardown order of core.Cluster.Close.
	teardown := func() {
		for _, p := range procs {
			p.Close()
		}
		fab.Close()
		for _, p := range procs {
			p.Wait()
			for _, t := range p.Tiles() {
				<-t.Mem.Stopped()
				t.Mem.ReleaseCaches()
			}
		}
	}
	for p := 0; p < cfg.Processes; p++ {
		tr := &countingTransport{Transport: fab.Process(arch.ProcID(p))}
		proc, err := core.NewProc(arch.ProcID(p), &cfg, prog, tr)
		if err != nil {
			teardown()
			return nil, err
		}
		trs = append(trs, tr)
		procs = append(procs, proc)
	}
	for _, p := range procs {
		p.Start()
	}
	if err := procs[0].MCP.StartMain(0); err != nil {
		teardown()
		return nil, err
	}
	select {
	case <-procs[0].MCP.Done():
	case <-time.After(jobTimeout):
		return nil, errors.New("traffic-shape run did not finish within " + jobTimeout.String())
	}
	for _, p := range procs {
		p.Wait()
	}
	teardown()

	s := new(shape)
	for _, tr := range trs {
		s.frames += tr.frames.Load()
		s.bytes += tr.bytes.Load()
		for k := range s.calls {
			s.calls[k] += tr.calls[k].Load()
		}
	}
	if s.frames == 0 {
		return nil, errors.New("traffic-shape run sent no frames")
	}
	return s, nil
}
