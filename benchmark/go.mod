module astra/benchmark

go 1.22

require astra v0.0.0

replace astra => ../
