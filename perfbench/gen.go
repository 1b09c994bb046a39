package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"lateral/internal/distributed"
)

// Every input a workload sends is drawn here from the run's seed, one
// independent stream per client lane, so the same seed always yields the
// same request sequence on every lane regardless of scheduling. The
// program under test only ever sees the generated inputs.

// laneRand returns lane's generator for seed. Distinct (seed, lane, salt)
// triples give independent PCG streams.
func laneRand(seed int64, lane int, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), salt<<32|uint64(lane)))
}

// genRPCLanes draws every rpc-pipelined lane's payloads.
func genRPCLanes(seed int64) [][]rpcCall {
	out := make([][]rpcCall, rpcLanes)
	for lane := range out {
		out[lane] = genRPC(seed, lane, rpcCalls)
	}
	return out
}

// Payload size classes of rpc-pipelined and their shares in percent.
var (
	payloadSizes  = [3]int{16, 256, 4096}
	payloadShares = [3]int{70, 25, 5}
)

// rpcCall is one generated echo request.
type rpcCall struct {
	class int // index into payloadSizes
	data  []byte
}

// genRPC generates n echo payloads for one lane. Each block of 100
// consecutive calls holds exactly payloadShares of each size class, in a
// seeded random order, so every seed sends the same mix; the bytes are
// uniform.
func genRPC(seed int64, lane, n int) []rpcCall {
	r := laneRand(seed, lane, 2)
	var block []int
	for class, share := range payloadShares {
		for i := 0; i < share; i++ {
			block = append(block, class)
		}
	}
	out := make([]rpcCall, n)
	for i := range out {
		if i%len(block) == 0 {
			r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		class := block[i%len(block)]
		b := make([]byte, payloadSizes[class])
		for j := range b {
			b[j] = byte(r.Uint32())
		}
		out[i] = rpcCall{class: class, data: b}
	}
	return out
}

// Fleet traffic shape: frames of one tenant each, tenants Zipf-skewed.
const (
	fleetTenants  = 16
	fleetMaxFrame = 256
	zipfS         = 1.1
)

// fleetFrame is one generated ingestion frame: all readings belong to one
// tenant and share the frame's routing key.
type fleetFrame struct {
	tenant   int
	key      string
	readings [][]byte // "tTT/gL/mNNNNNN=k", k the kWh byte
	bytes    int      // total reading bytes
}

// genFleet generates n frames for one gateway lane. The frame size is
// log-uniform on [1, fleetMaxFrame], so the smallest frames (single
// readings, sent through Router.Do) are as common as any octave of sizes.
// Sizes are drawn stratified: each block of sizeStrata frames takes one
// draw from each of sizeStrata equal slices of the log scale, in a seeded
// random order, so the size mix — and with it the work per frame — does
// not vary from seed to seed.
func genFleet(seed int64, lane, n int) []fleetFrame {
	const sizeStrata = 256
	r := laneRand(seed, lane, 3)
	z := rand.NewZipf(r, zipfS, 1, fleetTenants-1)
	out := make([]fleetFrame, n)
	var strata []int
	meter := 0
	for i := range out {
		if i%sizeStrata == 0 {
			strata = r.Perm(sizeStrata)
		}
		t := int(z.Uint64())
		u := (float64(strata[i%sizeStrata]) + r.Float64()) / sizeStrata
		size := int(math.Exp(u * math.Log(fleetMaxFrame+1)))
		size = min(max(size, 1), fleetMaxFrame)
		f := fleetFrame{tenant: t, key: fmt.Sprintf("t%02d/g%d/f%07d", t, lane, i)}
		f.readings = make([][]byte, size)
		for j := range f.readings {
			f.readings[j] = append([]byte(fmt.Sprintf("t%02d/g%d/m%06d=", t, lane, meter%1000000)), byte(1+r.IntN(9)))
			f.bytes += len(f.readings[j])
			meter++
		}
		out[i] = f
	}
	return out
}

// fleetInputs are the frames of every gateway lane, with each frame's
// readings ready for Router.DoBatch.
type fleetInputs struct {
	frames   [][]fleetFrame
	readings [][][]distributed.Reading // per lane, per frame
}

func genFleetLanes(seed int64, lanes int) fleetInputs {
	var in fleetInputs
	for lane := 0; lane < lanes; lane++ {
		frames := genFleet(seed, lane, fleetFrames)
		rs := make([][]distributed.Reading, len(frames))
		for i, fr := range frames {
			rs[i] = make([]distributed.Reading, len(fr.readings))
			for j, d := range fr.readings {
				rs[i][j] = distributed.Reading{Op: "reading", Data: d}
			}
		}
		in.frames = append(in.frames, frames)
		in.readings = append(in.readings, rs)
	}
	return in
}

// mailInputs are every local-mail client's compose drafts and the reply
// each must get.
type mailInputs struct {
	drafts, want [][]string
}

func genMail(seed int64) mailInputs {
	var in mailInputs
	for lane := 0; lane < mailLanes; lane++ {
		d := genDrafts(seed, lane, mailDrafts)
		w := make([]string, len(d))
		for i, s := range d {
			w[i] = fmt.Sprintf("delivered %d bytes", len("To: boss@example.org\n"+s+" [autocompleted]"))
		}
		in.drafts = append(in.drafts, d)
		in.want = append(in.want, w)
	}
	return in
}

// genDrafts generates n compose drafts for one local-mail client: a few
// words from a fixed vocabulary.
func genDrafts(seed int64, lane, n int) []string {
	words := []string{"quarterly", "report", "meeting", "budget", "draft", "review",
		"schedule", "invoice", "summary", "follow-up", "deadline", "notes"}
	r := laneRand(seed, lane, 1)
	out := make([]string, n)
	for i := range out {
		k := 2 + r.IntN(6)
		s := ""
		for j := 0; j < k; j++ {
			if j > 0 {
				s += " "
			}
			s += words[r.IntN(len(words))]
		}
		out[i] = s
	}
	return out
}
