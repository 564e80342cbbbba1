        LOADI R1, 0x0A     ; loop counter
        ZERO  R0
loop:   INC   R0
        PORT0 R0           ; drive the output port
        B7S   R0           ; show low digit
        DEC   R1
        LOADI R7, loop
        BNEQ  R7           ; again until R1 == 0
done:   BI    done         ; park (self-loop halts the run)
