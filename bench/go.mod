module ios/bench

go 1.21

require ios v0.0.0

replace ios => ../
