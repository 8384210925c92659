module progopt/benchmark

go 1.24

require progopt v0.0.0

replace progopt => ../
