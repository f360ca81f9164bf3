package fabric

import (
	"testing"

	"repro/internal/des"
)

func twoNodeFabric(eng *des.Engine) *Fabric {
	// Ranks 0,1 on node 0; ranks 2,3 on node 1.
	return New(eng, QDRInfiniBand(), []int{0, 0, 1, 1})
}

func TestCrossNodeSendDelivers(t *testing.T) {
	eng := des.NewEngine()
	f := twoNodeFabric(eng)
	var got Message
	var when des.Time
	eng.Spawn("recv", func(p *des.Proc) {
		got = f.Recv(p, 2)
		when = p.Now()
	})
	eng.Spawn("send", func(p *des.Proc) {
		f.Send(p, 0, 2, "pairs", 32<<20, "payload")
	})
	eng.Run()
	if got.Payload != "payload" || got.From != 0 || got.To != 2 || got.Tag != "pairs" {
		t.Errorf("message %+v", got)
	}
	wire := des.FromSeconds(float64(32<<20) / 3.2e9)
	min := wire + f.props.Latency
	if when < min {
		t.Errorf("delivered at %v, faster than wire time %v", when, min)
	}
}

func TestIntraNodeSendBypassesNIC(t *testing.T) {
	eng := des.NewEngine()
	f := twoNodeFabric(eng)
	var when des.Time
	eng.Spawn("recv", func(p *des.Proc) {
		f.Recv(p, 1)
		when = p.Now()
	})
	eng.Spawn("send", func(p *des.Proc) {
		f.Send(p, 0, 1, "pairs", 32<<20, nil)
	})
	eng.Run()
	want := des.FromSeconds(float64(32<<20) / f.props.HostMemBW)
	if when != want {
		t.Errorf("intra-node delivery at %v, want %v", when, want)
	}
}

func TestEgressNICSerializesSenders(t *testing.T) {
	eng := des.NewEngine()
	f := twoNodeFabric(eng)
	var sendDone []des.Time
	for r := 0; r < 2; r++ {
		rank := r
		eng.Spawn("send", func(p *des.Proc) {
			f.Send(p, rank, 2+rank, "x", 32<<20, nil)
			sendDone = append(sendDone, p.Now())
		})
	}
	eng.Spawn("recv2", func(p *des.Proc) { f.Recv(p, 2) })
	eng.Spawn("recv3", func(p *des.Proc) { f.Recv(p, 3) })
	eng.Run()
	wire := des.FromSeconds(float64(32<<20) / 3.2e9)
	if sendDone[0] != wire {
		t.Errorf("first send done at %v, want %v", sendDone[0], wire)
	}
	if sendDone[1] != 2*wire {
		t.Errorf("second send done at %v, want serialized %v", sendDone[1], 2*wire)
	}
}

func TestTransferSynchronous(t *testing.T) {
	eng := des.NewEngine()
	f := twoNodeFabric(eng)
	var dur des.Time
	eng.Spawn("mv", func(p *des.Proc) {
		dur = f.Transfer(p, 0, 2, 64<<20)
	})
	eng.Run()
	want := f.props.Latency + des.FromSeconds(float64(64<<20)/3.2e9)
	if dur != want {
		t.Errorf("transfer took %v, want %v", dur, want)
	}
}

func TestTransferIntraNode(t *testing.T) {
	eng := des.NewEngine()
	f := twoNodeFabric(eng)
	var dur des.Time
	eng.Spawn("mv", func(p *des.Proc) {
		dur = f.Transfer(p, 0, 1, 64<<20)
	})
	eng.Run()
	want := des.FromSeconds(float64(64<<20) / f.props.HostMemBW)
	if dur != want {
		t.Errorf("intra-node transfer %v, want %v", dur, want)
	}
}

func TestSameNode(t *testing.T) {
	eng := des.NewEngine()
	f := twoNodeFabric(eng)
	if !f.SameNode(0, 1) || f.SameNode(1, 2) {
		t.Error("SameNode topology wrong")
	}
	if f.Ranks() != 4 || !f.SameNode(2, 3) || f.SameNode(0, 3) {
		t.Error("rank bookkeeping wrong")
	}
}
