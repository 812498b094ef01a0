module zkperf/benchmark

go 1.22

require zkperf v0.0.0

replace zkperf => ../
