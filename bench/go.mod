module millibalance/bench

go 1.22

require millibalance v0.0.0

replace millibalance => ../
