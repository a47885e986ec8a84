# Freestanding entry point: call main, pass its return value to exit(2).
# Linked in front of candidate and test-driver objects by the clang-lite
# toolchain profile's x86_64 section, in place of crt1.o and libc.
	.text
	.globl	_start
	.type	_start, @function
_start:
	xorl	%ebp, %ebp
	andq	$-16, %rsp
	call	main
	movl	%eax, %edi
	movl	$60, %eax
	syscall
	.size	_start, .-_start
	.section	.note.GNU-stack,"",@progbits
