#include "textflag.h"

// func fpChain(buf *uintptr, n int) int
//
// Follows the saved frame pointers up from the caller's frame, storing
// each frame's return address (8(fp)) in buf, until the chain ends in the
// nil frame pointer every goroutine starts with. Returns the number of
// addresses stored, or -1 when n slots do not hold the whole chain.
// NOFRAME with a zero frame leaves BP the caller's; an assembly function
// is never preempted and NOSPLIT never grows the stack, so the stack
// cannot move under the walk.
TEXT ·fpChain(SB), NOSPLIT|NOFRAME, $0-24
	MOVQ buf+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ BP, AX
	XORQ DX, DX
walk:
	TESTQ AX, AX
	JZ   done
	CMPQ DX, CX
	JGE  deep
	MOVQ 8(AX), BX
	MOVQ BX, (DI)(DX*8)
	MOVQ (AX), AX
	INCQ DX
	JMP  walk
deep:
	MOVQ $-1, DX
done:
	MOVQ DX, ret+16(FP)
	RET
