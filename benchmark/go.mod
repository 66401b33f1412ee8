module kbtable/benchmark

go 1.22

require kbtable v0.0.0

replace kbtable => ../
