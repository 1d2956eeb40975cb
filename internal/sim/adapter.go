package sim

// AsSync adapts a purely message-driven asynchronous algorithm to
// synchronous rounds (RunSync): OnWake maps to the wake round and each
// message of the round's inbox becomes an OnMessage call during OnRound,
// in delivery order. This is exactly the classical simulation of an
// asynchronous algorithm in a synchronous network (unit delays).
func AsSync(alg Algorithm) SyncAlgorithm { return syncAdapted{alg} }

type syncAdapted struct{ Algorithm }

func (a syncAdapted) NewMachine(info NodeInfo) SyncProgram {
	return syncAdaptedMachine{a.Algorithm.NewMachine(info)}
}

type syncAdaptedMachine struct{ Program }

func (m syncAdaptedMachine) OnRound(ctx Context, inbox []Delivery) {
	for _, d := range inbox {
		m.OnMessage(ctx, d)
	}
}
