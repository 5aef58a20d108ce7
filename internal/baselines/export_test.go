package baselines

// WithMapAgenda switches Fixed, Hybrid or Defuse onto the map-backed agenda
// oracle (agenda_test.go) for the external equivalence tests, which may
// import internal/experiments. Call it before Train.
var WithMapAgenda = withMapAgenda
