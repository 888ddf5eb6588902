      PROGRAM P
      REAL A(10)
      DO I = 1, 11
        A(I) = 1.0
      ENDDO
      PRINT *, A(1)
      END
