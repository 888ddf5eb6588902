      PROGRAM P
      INTEGER I
      REAL A(10)
      DO I = 1, 10
        A(I) = 0.0
      ENDDO
      IF (A(1) .GT. 0.0) GOTO 20
      A(1) = 1.0
   20 CONTINUE
      PRINT *, A(1)
      END
