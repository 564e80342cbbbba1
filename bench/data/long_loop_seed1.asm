; long_loop program, seed 1. Generated by bench/workloads.py; do not edit.
; Straight-line body closed by BCH to `loop`, so the run ends on the cycle budget.
        LOADI R0, 0x44
        LOADI R1, 0x20
        LOADI R2, 0x82
        LOADI R3, 0x3C
        LOADI R4, 0xFD
        LOADI R5, 0xE6
        LOADI R6, 0xF1
loop:   ADD   R0, R5
        B7S   R2
        XOR   R5, R5
        MOVE  R4, R3
        ROL   R4
        OR    R6, R5
        SHR   R1
        SUB   R2, R2
        DEC   R4
        LOAD  R3, 0xC9
        LOADI R4, 0x11
        SUB   R3, R1
        SUB   R5, R6
        OR    R3, R3
        B7S   R5
        STORE R1, 0xBB
        AND   R4, R5
        DEC   R6
        LOADI R5, 0xBF
        NOP
        PORT1 R3
        LOADI R5, 0x37
        NOT   R6
        ZERO  R1
        STORE R4, 0xC9
        ROR   R2
        PORT0 R3
        LOAD  R5, 0x0F
        PORT0 R3
        XOR   R0, R2
        STORE R5, 0xC9
        PORT1 R5
        INC   R1
        SHL   R1
        LOAD  R4, 0x74
        ADD   R0, R6
        LOAD  R1, 0x76
        UARTS R3
        ADD   R4, R2
        STORE R6, 0xB4
        AND   R3, R2
        INC   R5
        MOVE  R4, R4
        UARTS R5
        LOADI R7, loop
        BCH   R7
