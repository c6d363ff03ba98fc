// The benchmark is a module of its own because the benchmark contract wants a
// compiled benchmark to carry its own build file inside its directory; its
// import path sits under jdvs/, which is what lets it import jdvs/internal/...
// through the replace below. The repository's build and tests do not see it:
// run.sh builds it from source on every run.
module jdvs/bench

go 1.23

require jdvs v0.0.0

replace jdvs => ../
