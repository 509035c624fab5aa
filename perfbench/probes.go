package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/coremodel"
	"repro/internal/directory"
	"repro/internal/dram"
	"repro/internal/mcp"
	"repro/internal/memsys"
	"repro/internal/network"
	"repro/internal/queuemodel"
	"repro/internal/scenario"
	"repro/internal/synchro"
	"repro/internal/transport"
)

// A probe times one layer's exported API in isolation. setup builds the
// layer's state and returns body, which performs n operations, and done,
// which releases the state. Probes are sized to the workloads' shapes:
// 1024 tiles where matmul stresses the layer, 64 where radix or ocean do,
// and the transport and network probes to the traffic the workload of the
// run hands its transport.
type probe struct {
	name  string // <layer>.<op>
	setup func(env probeEnv) (body func(n int) error, done func(), err error)
}

// probeEnv is what a probe's setup gets: its own seeded randomness, the
// workload's traffic shape and the run's log.
type probeEnv struct {
	rng   *rand.Rand
	shape *shape
	log   io.Writer
}

var probes = []probe{
	{"clock.observe_now", probeObserveNow},
	{"queuemodel.delay", probeQueueDelay},
	{"network.mesh_delay_contention", func(env probeEnv) (func(int) error, func(), error) {
		return probeMeshDelay(env, config.NetMeshContention, 1024)
	}},
	{"network.mesh_delay_hop", func(env probeEnv) (func(int) error, func(), error) {
		return probeMeshDelay(env, config.NetMeshHop, 64)
	}},
	{"transport.channel_batch", probeChannelBatch},
	{"transport.tcp_batch", probeTCPBatch},
	{"memsys.hit", func(probeEnv) (func(int) error, func(), error) { return probeMemsys(false) }},
	{"memsys.remote_miss", func(probeEnv) (func(int) error, func(), error) { return probeMemsys(true) }},
	{"directory.sharer", probeDirectorySharer},
	{"cache.lookup_insert", probeCacheLookupInsert},
	{"dram.read_line", probeDRAMReadLine},
	{"synchro.ledger_round", probeLedgerRound},
	{"mcp.simbatch_codec", probeSimBatchCodec},
	{"coremodel.compute", probeCoreCompute},
}

// probeRound is the target duration of one timed round of a probe.
const probeRound = 40 * time.Millisecond

// probeRounds is the number of timed rounds; the median is reported.
const probeRounds = 3

// runProbes runs every probe and reports ns and heap allocations per
// operation, each the median over probeRounds rounds, and the traffic
// shape the transport and network probes were sized to.
func runProbes(seed int64, sh *shape, log io.Writer) (map[string]metric, error) {
	out := sh.metrics()
	for i, p := range probes {
		env := probeEnv{rng: rand.New(rand.NewSource(seed*1000 + int64(i))), shape: sh, log: log}
		ns, allocs, err := measureProbe(p, env)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out["probe."+p.name+"_ns"] = metric{ns, "ns/op"}
		out["probe."+p.name+"_allocs"] = metric{allocs, "allocs/op"}
	}
	return out, nil
}

func measureProbe(p probe, env probeEnv) (ns, allocs float64, err error) {
	body, done, err := p.setup(env)
	if err != nil {
		return 0, 0, err
	}
	defer done()
	// Calibrate: grow n until one round takes at least a quarter of the
	// target, then scale to the target.
	n := 64
	for {
		start := time.Now()
		if err := body(n); err != nil {
			return 0, 0, err
		}
		el := time.Since(start)
		if el >= probeRound/4 || n >= 1<<26 {
			n = int(float64(n) * float64(probeRound) / float64(max(el, time.Microsecond)))
			n = max(n, 64)
			break
		}
		n *= 4
	}
	var nsPer, allocPer []float64
	var ms runtime.MemStats
	for r := 0; r < probeRounds; r++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		if err := body(n); err != nil {
			return 0, 0, err
		}
		el := time.Since(start)
		runtime.ReadMemStats(&ms)
		nsPer = append(nsPer, float64(el.Nanoseconds())/float64(n))
		allocPer = append(allocPer, float64(ms.Mallocs-before)/float64(n))
	}
	return median(nsPer), median(allocPer), nil
}

var sinkCycles arch.Cycles

// parallel runs fn(g, share) on one goroutine per host CPU, splitting n
// operations between them, and waits for all of them. Each goroutine
// returns the sum of the cycles its calls returned, which is kept in
// sinkCycles so the calls cannot be optimized away.
func parallel(n int, fn func(g, share int) arch.Cycles) {
	gs := runtime.NumCPU()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < gs; g++ {
		share := n / gs
		if g < n%gs {
			share++
		}
		wg.Add(1)
		go func(g, share int) {
			defer wg.Done()
			s := fn(g, share)
			mu.Lock()
			sinkCycles += s
			mu.Unlock()
		}(g, share)
	}
	wg.Wait()
}

// steps returns k pseudo-random clock increments in [1, 16].
func steps(rng *rand.Rand, k int) []arch.Cycles {
	out := make([]arch.Cycles, k)
	for i := range out {
		out[i] = arch.Cycles(1 + rng.Intn(16))
	}
	return out
}

// probeObserveNow: ProgressWindow.Observe + Now from one goroutine per
// CPU on a 1024-entry window, as every tile of matmul does per message.
func probeObserveNow(env probeEnv) (func(int) error, func(), error) {
	w := clock.NewProgressWindow(1024)
	inc := steps(env.rng, 4096)
	return func(n int) error {
		parallel(n, func(g, share int) arch.Cycles {
			t := arch.Cycles(g * 1000)
			var s arch.Cycles
			for i := 0; i < share; i++ {
				t += inc[i&4095]
				w.Observe(t)
				s += w.Now()
			}
			return s
		})
		return nil
	}, func() {}, nil
}

// probeQueueDelay: concurrent Queue.Delay calls on one queue sharing one
// progress window — one contended mesh link.
func probeQueueDelay(env probeEnv) (func(int) error, func(), error) {
	w := clock.NewProgressWindow(1024)
	q := queuemodel.New(w)
	inc := steps(env.rng, 4096)
	return func(n int) error {
		parallel(n, func(g, share int) arch.Cycles {
			now := q.Clock()
			var s arch.Cycles
			for i := 0; i < share; i++ {
				now += inc[(i+g)&4095]
				s += q.Delay(now, 2)
			}
			return s
		})
		return nil
	}, func() {}, nil
}

// probeMeshDelay: Mesh.Delay between random endpoints, from one goroutine
// per CPU, on the MemNet of the given kind and size, for packets of the
// workload's mean frame size.
func probeMeshDelay(env probeEnv, kind config.NetworkModelKind, tiles int) (func(int) error, func(), error) {
	cfg := config.Default().MemNet
	cfg.Kind = kind
	w := clock.NewProgressWindow(tiles)
	m := network.NewModel(cfg, tiles, w)
	bytes := env.shape.frameBytes()
	const k = 4096
	src, dst := make([]arch.TileID, k), make([]arch.TileID, k)
	for i := range src {
		src[i], dst[i] = arch.TileID(env.rng.Intn(tiles)), arch.TileID(env.rng.Intn(tiles))
	}
	inc := steps(env.rng, k)
	return func(n int) error {
		parallel(n, func(g, share int) arch.Cycles {
			var now, s arch.Cycles
			for i := 0; i < share; i++ {
				j := (i + g*977) & (k - 1)
				now += inc[j]
				s += m.Delay(src[j], dst[j], bytes, now)
			}
			return s
		})
		return nil
	}, func() {}, nil
}

// batchPipe measures, per frame, the fabric calls of the workload's
// traffic shape from endpoint 0 to endpoint 1 and the Recv of each frame:
// frames of the mean size, sent by a sequence of Send and SendBatch calls
// whose sizes follow the recorded distribution. Received frames (owned by
// the receiver) are recycled as the next frames to send, which also bounds
// the frames in flight.
func batchPipe(env probeEnv, tx transport.Transport, rx transport.Endpoint) func(int) error {
	size := env.shape.frameBytes()
	calls := env.shape.callSequence(env.rng, 4096)
	const inflight = 2 * maxCallFrames
	free := make(chan []byte, inflight)
	for i := 0; i < inflight; i++ {
		free <- make([]byte, size)
	}
	frames := make([][]byte, 0, maxCallFrames)
	dst := transport.TileEndpoint(1)
	next := 0
	return func(n int) error {
		recvErr := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				f, err := rx.Recv()
				if err != nil {
					recvErr <- err
					return
				}
				if len(f) != size {
					recvErr <- fmt.Errorf("received %d-byte frame, sent %d", len(f), size)
					return
				}
				free <- f
			}
			recvErr <- nil
		}()
		for sent := 0; sent < n; {
			k := calls[next&4095]
			next++
			frames = frames[:0]
			for len(frames) < min(max(k, 1), n-sent) {
				select {
				case f := <-free:
					frames = append(frames, f)
				case err := <-recvErr:
					return fmt.Errorf("receiver stopped early: %v", err)
				}
			}
			var err error
			if k == 0 {
				err = tx.Send(dst, frames[0])
			} else {
				err = tx.SendBatch(dst, frames)
			}
			if err != nil {
				return err
			}
			sent += len(frames)
		}
		return <-recvErr
	}
}

func probeChannelBatch(env probeEnv) (func(int) error, func(), error) {
	fab := transport.NewChannelFabricSized(transport.StripedRoute(1), 2)
	tr := fab.Process(0)
	if _, err := tr.Register(transport.TileEndpoint(0)); err != nil {
		return nil, nil, err
	}
	rx, err := tr.Register(transport.TileEndpoint(1))
	if err != nil {
		return nil, nil, err
	}
	return batchPipe(env, tr, rx), func() { fab.Close() }, nil
}

// probeTCPBatch: the same pipe between two processes of a loopback TCP
// fabric (DialTCP pair), the ocean workload's transport.
func probeTCPBatch(env probeEnv) (func(int) error, func(), error) {
	var trs [2]transport.Transport
	done := func() {
		for _, tr := range trs {
			if tr != nil {
				tr.Close()
			}
		}
	}
	base, err := freePortRun(2)
	if err != nil {
		return nil, nil, err
	}
	err = retryPortTaken(2, &base, env.log, func() error {
		addrs := []string{fmt.Sprintf("127.0.0.1:%d", base), fmt.Sprintf("127.0.0.1:%d", base+1)}
		var errs [2]error
		var wg sync.WaitGroup
		for p := range trs {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				trs[p], errs[p] = transport.DialTCP(transport.TCPConfig{
					Proc: arch.ProcID(p), Procs: 2, Addrs: addrs,
					Route: transport.StripedRoute(2), DialTimeout: 10 * time.Second,
				})
			}(p)
		}
		wg.Wait()
		if err := errors.Join(errs[:]...); err != nil {
			done()
			trs = [2]transport.Transport{}
			return err
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rx, err := trs[1].Register(transport.TileEndpoint(1))
	if err != nil {
		done()
		return nil, nil, err
	}
	return batchPipe(env, trs[0], rx), done, nil
}

// memCluster is 64 tiles' memory nodes over one channel fabric, wired the
// way a simulated process wires them, with the radix workload's target.
type memCluster struct {
	fab   *transport.ChannelFabric
	nets  []*network.Net
	nodes []*memsys.Node
}

func newMemCluster(tiles int) (*memCluster, error) {
	cfg, err := scenario.Preset("small-cache")
	if err != nil {
		return nil, err
	}
	cfg.Tiles = tiles
	cfg.MemNet.Kind = config.NetMeshHop
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	progress := clock.NewProgressWindow(cfg.ProgressWindowSize())
	models := network.NewModels(&cfg, progress)
	c := &memCluster{fab: transport.NewChannelFabricSized(transport.StripedRoute(1), tiles)}
	tr := c.fab.Process(0)
	for t := 0; t < tiles; t++ {
		ep, err := tr.Register(transport.TileEndpoint(arch.TileID(t)))
		if err != nil {
			c.close()
			return nil, err
		}
		n := network.New(arch.TileID(t), tr, ep, models, progress)
		n.SetPrimary(network.ClassMemory)
		n.Start()
		node := memsys.NewNode(arch.TileID(t), &cfg, n, progress)
		go node.Serve()
		c.nets = append(c.nets, n)
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

func (c *memCluster) close() {
	for _, n := range c.nets {
		n.Close()
	}
	c.fab.Close()
	for _, n := range c.nodes {
		<-n.Stopped()
	}
}

// probeMemsys: Node.Read on tile 0 of a 64-tile system. The hit probe
// rereads one cached word. The miss probe cycles through lines homed on
// other tiles, a working set four times the L2, so every read leaves the
// tile for a remote directory and DRAM.
func probeMemsys(miss bool) (func(int) error, func(), error) {
	const tiles = 64
	c, err := newMemCluster(tiles)
	if err != nil {
		return nil, nil, err
	}
	n := c.nodes[0]
	line := arch.Addr(n.LineSize())
	base := arch.Addr(0x1000_0000)
	buf := make([]byte, 8)
	var now arch.Cycles
	if !miss {
		n.Write(base, buf, 0)
		return func(k int) error {
			for i := 0; i < k; i++ {
				now += n.Read(base, buf, now).Latency
			}
			return nil
		}, c.close, nil
	}
	// Lines are striped across homes by line number. Read i goes to line
	// i*tiles+1+i%(tiles-1) past base, so the reads cycle over the remote
	// homes 1..tiles-1 and never reach the reading tile 0.
	lines := 4 * (256 << 10) / int(line)
	next := 0
	return func(k int) error {
		for i := 0; i < k; i++ {
			addr := base + arch.Addr(next*tiles+1+next%(tiles-1))*line
			next = (next + 1) % lines
			res := n.Read(addr, buf, now)
			if res.L2Misses != 1 {
				return fmt.Errorf("read of %#x: %d L2 misses, want 1", addr, res.L2Misses)
			}
			now += res.Latency
		}
		return nil
	}, c.close, nil
}

// probeDirectorySharer: one AddSharer, a ForEachSharer walk and one
// RemoveSharer on full-map entries of a 1024-tile directory holding a
// few sharers each.
func probeDirectorySharer(env probeEnv) (func(int) error, func(), error) {
	const tiles, entries = 1024, 256
	s := directory.NewStore(config.Default().Coherence, tiles, entries)
	refs := make([]directory.Ref, entries)
	for i := range refs {
		refs[i] = s.Alloc()
		for k := 0; k < 4; k++ {
			refs[i].AddSharer(arch.TileID(env.rng.Intn(tiles)))
		}
	}
	who := make([]arch.TileID, 4096)
	for i := range who {
		who[i] = arch.TileID(env.rng.Intn(tiles))
	}
	var visited int
	visit := func(arch.TileID) { visited++ }
	return func(n int) error {
		for i := 0; i < n; i++ {
			r, t := refs[i%entries], who[i&4095]
			if r.ContainsSharer(t) {
				continue // keep each entry's sharer set steady
			}
			r.AddSharer(t)
			r.ForEachSharer(visit)
			r.RemoveSharer(t)
		}
		if visited == 0 {
			return errors.New("no sharers visited")
		}
		return nil
	}, func() {}, nil
}

// probeCacheLookupInsert: Lookup of random lines over a working set twice
// the small-cache L1D, with an Insert on every miss.
func probeCacheLookupInsert(env probeEnv) (func(int) error, func(), error) {
	cfg, err := scenario.Preset("small-cache")
	if err != nil {
		return nil, nil, err
	}
	c := cache.New(cfg.L1D)
	lines := 2 * cfg.L1D.Size / cfg.L1D.LineSize
	seq := make([]cache.LineAddr, 4096)
	for i := range seq {
		seq[i] = cache.LineAddr(env.rng.Intn(lines))
	}
	data := make([]byte, cfg.L1D.LineSize)
	return func(n int) error {
		for i := 0; i < n; i++ {
			l := seq[i&4095]
			if _, ok := c.Lookup(l); !ok {
				c.Insert(l, cache.Shared, data)
			}
		}
		if c.Hits == 0 || c.Misses == 0 {
			return errors.New("working set gave no hits or no misses")
		}
		return nil
	}, c.Release, nil
}

// probeDRAMReadLine: ReadLine on one tile's controller of a 64-tile
// target, each read issued when the previous one completed.
func probeDRAMReadLine(env probeEnv) (func(int) error, func(), error) {
	cfg, err := scenario.Preset("small-cache")
	if err != nil {
		return nil, nil, err
	}
	cfg.Tiles = 64
	w := clock.NewProgressWindow(cfg.ProgressWindowSize())
	c := dram.New(&cfg, w)
	line := make([]byte, 64)
	for l := 0; l < 1024; l++ {
		c.WriteLine(uint64(l), line, 0)
	}
	seq := make([]uint64, 4096)
	for i := range seq {
		seq[i] = uint64(env.rng.Intn(1024))
	}
	var now arch.Cycles
	return func(n int) error {
		for i := 0; i < n; i++ {
			now += c.ReadLine(seq[i&4095], line, now)
		}
		return nil
	}, func() {}, nil
}

// probeLedgerRound: one LaxBarrier round of the 32 tiles of one ocean
// process through a Ledger, the MCP release played by the flush callback.
// One operation is one round: every tile waits, the last flushes.
func probeLedgerRound(probeEnv) (func(int) error, func(), error) {
	const tiles = 32
	var l *synchro.Ledger
	var batches atomic.Int64
	l = synchro.NewLedger(func(b []synchro.EpochWait) {
		batches.Add(1)
		l.Release(b[0].Epoch)
	})
	for t := 0; t < tiles; t++ {
		l.ThreadStarted(arch.TileID(t))
	}
	var epoch int64
	return func(n int) error {
		first := epoch + 1
		var wg sync.WaitGroup
		for t := 0; t < tiles; t++ {
			wg.Add(1)
			go func(tile arch.TileID) {
				defer wg.Done()
				for e := first; e < first+int64(n); e++ {
					l.Wait(tile, e)
				}
			}(arch.TileID(t))
		}
		wg.Wait()
		epoch += int64(n)
		if b := batches.Swap(0); b < int64(n) {
			return fmt.Errorf("%d batches for %d rounds", b, n)
		}
		return nil
	}, l.Close, nil
}

// probeSimBatchCodec: EncodeSimBatch then AppendSimBatch of one
// 512-entry barrier batch, the MCP control plane's batch message.
func probeSimBatchCodec(env probeEnv) (func(int) error, func(), error) {
	ws := make([]mcp.SimWait, 512)
	for i := range ws {
		ws[i] = mcp.SimWait{Tile: arch.TileID(env.rng.Intn(1024)), Epoch: env.rng.Int63n(1 << 40)}
	}
	var dst []mcp.SimWait
	return func(n int) error {
		for i := 0; i < n; i++ {
			var err error
			dst, err = mcp.AppendSimBatch(dst[:0], mcp.EncodeSimBatch(ws))
			if err != nil {
				return err
			}
		}
		if len(dst) != len(ws) || dst[len(ws)-1] != ws[len(ws)-1] {
			return errors.New("batch did not round-trip")
		}
		return nil
	}, func() {}, nil
}

// probeCoreCompute: one Compute and one Branch on the in-order core model.
func probeCoreCompute(env probeEnv) (func(int) error, func(), error) {
	clk := new(clock.Local)
	c := coremodel.New(config.Default().Core, clk, 0, 0, 64, nil)
	taken := make([]bool, 4096)
	for i := range taken {
		taken[i] = env.rng.Intn(4) != 0
	}
	return func(n int) error {
		for i := 0; i < n; i++ {
			c.Compute(coremodel.Arith, 4)
			c.Branch(taken[i&4095])
		}
		if clk.Now() == 0 {
			return errors.New("core clock did not advance")
		}
		return nil
	}, func() {}, nil
}
