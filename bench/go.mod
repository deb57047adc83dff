module repro/bench

go 1.22.0

toolchain go1.24.0

require repro v0.0.0

replace repro => ../
